"""Surface kernel: validation, curvature invariants, point classification,
and the hyperbola of normal curvature.

A surface patch is a holomorphic curve Psi with x = Re Psi, Phi = Psi',
subject to the isothermal condition Phi^2 = 0 and the time-like condition
E = ||Phi||^2 / 2 < 0.  All curvature formulas below are expressed through
Phi and Phi' only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dnum import DClass, DNum, EPS_CLS, classify
from .errors import (
    DegeneratePointError,
    GridError,
    MetricDegeneracyError,
    SurfaceConditionError,
)
from .holo import Box, HoloCurve, sample
from .mink import DVec, dot, normsq, wedge_normsq

#: Relative tolerance for the isothermal residual |Psi'^2| on the grid.
ISOTHERMAL_TOL = 1e-9

#: Default absolute scale for deciding K == 0 (superconformal points).
EPS_K = 1e-8

#: Default finite-difference step for the laplacian curvature formula.
H_FD = 1e-3


class PointClass(enum.Enum):
    DEGENERATE = "degenerate"
    SUPERCONFORMAL = "superconformal"
    GENERIC = "generic"


@dataclass(frozen=True)
class ValidationRecord:
    max_isothermal: float
    max_normsq: float  # max over grid of ||Phi||^2; accepted iff < 0
    worst_isothermal_at: tuple[float, float]
    worst_normsq_at: tuple[float, float]
    grid_shape: tuple[int, int]


@dataclass(frozen=True)
class SurfacePatch:
    psi: HoloCurve
    phi: HoloCurve
    phi_prime: HoloCurve
    domain: Box
    validation: ValidationRecord

    @property
    def n(self) -> int:
        return self.psi.n


@dataclass(frozen=True)
class PointData:
    t: DNum
    x: np.ndarray
    phi: DVec
    phi_prime: DVec
    phi_perp: DVec
    E: float
    K: float
    cls: PointClass


@dataclass(frozen=True)
class NormalHyperbola:
    n1: np.ndarray | None
    n2: np.ndarray | None
    nu: float
    mu: float
    kappa: float
    K: float
    E: float
    frame_degenerate: bool


# -- vectorized grid evaluation ------------------------------------------

def _metric_sign(k: int) -> float:
    return -1.0 if k == 0 else 1.0


def _null_samples(curve: HoloCurve, a: np.ndarray, b: np.ndarray):
    """Per-axis null samples of each component, shaped to broadcast to the
    outer [b, a] grid: (fminus(a) as (1, na) rows, fplus(b) as (nb, 1) columns)."""
    return (
        [sample(c.fminus.f, a)[None, :] for c in curve.components],
        [sample(c.fplus.f, b)[:, None] for c in curve.components],
    )


def _combo(xs, ys):
    """Minkowski-signed sum of products: sum over k of sign_k * xs[k] * ys[k]."""
    return sum(_metric_sign(k) * x * y for k, (x, y) in enumerate(zip(xs, ys)))


def _degenerate(P, Q):
    """Null-cone test of Phi'^2 = P q + Q qbar, with dnum.classify's threshold."""
    thr = EPS_CLS * (1.0 + np.maximum(np.abs(P), np.abs(Q)))
    return np.minimum(np.abs(P), np.abs(Q)) <= thr


def _outer_core(phi_s, phip_s) -> dict:
    """Quantities on the outer [b, a] grid of per-axis null samples.

    phi_s and phip_s are _null_samples of Phi and Phi' at arbitrary a and
    b arrays.  Point (a_i, b_j) combines the samples at a_i and b_j, so
    nothing here is evaluated per point.  ``perp`` yields, once, the
    (q, qbar) components of Phi'perp per component; being lazy, it holds
    one component's pair at a time on large grids.
    """
    fm, fp = phi_s
    gm, gp = phip_s
    norm_phi = _combo(fm, fp)
    norm_phip = _combo(gm, gp)
    # conj(Phi) . Phi' and Phi . Phi' in null components
    cp_p, cp_m = _combo(fp, gm), _combo(fm, gp)
    dd_p, dd_m = _combo(fm, gm), _combo(fp, gp)

    # Phi'perp; conj(Phi)_k has its null components swapped
    with np.errstate(divide="ignore", invalid="ignore"):
        c1_p, c1_m = cp_p / norm_phi, cp_m / norm_phi  # (conjPhi.Phi')/||Phi||^2
        c2_p, c2_m = dd_p / norm_phi, dd_m / norm_phi  # (Phi.Phi')/||Phi||^2
    perp = (
        (qm - c1_p * pm - c2_p * pp, qp - c1_m * pp - c2_m * pm)
        for pm, pp, qm, qp in zip(fm, fp, gm, gp)
    )
    wedge = norm_phi * norm_phip - cp_p * cp_m
    return {
        "norm_phi": norm_phi, "norm_phip": norm_phip,
        "P": _combo(gm, gm), "Q": _combo(gp, gp), "dd_p": dd_p, "dd_m": dd_m,
        "perp": perp, "K_biv": -4.0 * wedge / norm_phi**3,
    }


def grid_quantities(
    S: SurfacePatch,
    na: int,
    nb: int,
    h_fd: float = H_FD,
    richardson: bool = True,
    box: Box | None = None,
) -> dict:
    """All sweep quantities on an na x nb null-coordinate grid.

    Returns 2-D arrays (index order [b, a]) for u, v, E, K_proj, K_biv,
    K_lap, P, Q, the Gauss-equation residual, and the point-class codes.
    The laplacian entries require the 2*h_fd margin inside the patch
    domain; the caller is responsible for choosing a box that has it.
    """
    box = box or S.domain
    if na < 2 or nb < 2:
        raise GridError("grid needs at least 2 points per axis")
    a = np.linspace(box.a0, box.a1, na)
    b = np.linspace(box.b0, box.b1, nb)
    B, A = np.meshgrid(b, a, indexing="ij")

    core = _outer_core(_null_samples(S.phi, a, b), _null_samples(S.phi_prime, a, b))
    norm_phi, K_biv = core["norm_phi"], core["K_biv"]
    E = 0.5 * norm_phi
    P2 = np.broadcast_to(core["P"], (nb, na))
    Q2 = np.broadcast_to(core["Q"], (nb, na))

    # projection route: the norm square of Phi'perp
    norm_perp = sum(_metric_sign(k) * q * qb for k, (q, qb) in enumerate(core["perp"]))
    K_proj = -4.0 * norm_perp / norm_phi**2

    # laplacian route: hyperbolic laplacian of ln(-||Phi||^2) via the
    # cross stencil in null coordinates (d_uu - d_vv = 4 d_a d_b)
    def lap_lnE(h):
        # summed one corner at a time, so one grid of logs is alive at once
        acc = 0.0
        for sign, sa, sb in ((1.0, h, h), (-1.0, h, -h), (-1.0, -h, h), (1.0, -h, -h)):
            acc = acc + sign * np.log(-_combo(*_null_samples(S.phi, a + sa, b + sb)))
        return acc / (h * h)

    lap = lap_lnE(h_fd)
    if richardson:
        lap = (4.0 * lap_lnE(h_fd / 2.0) - lap) / 3.0
    K_lap = lap / (-norm_phi)
    # ln|E| = ln(-||Phi||^2) - ln 2, so lap ln|E| / E = 2 lap / ||Phi||^2
    gauss_residual = np.abs(2.0 * lap / norm_phi + 2.0 * K_biv)

    # classification
    degenerate = _degenerate(P2, Q2)
    superconf = ~degenerate & (np.abs(K_biv) <= EPS_K)
    cls = np.where(degenerate, 0, np.where(superconf, 1, 2))

    # invariant semi-axes (general-type points only)
    with np.errstate(invalid="ignore"):
        amp = np.sqrt(np.where(degenerate, np.nan, P2 * Q2))
        ssum = amp / E**2
        nu = np.sqrt(np.maximum(0.0, 0.5 * (ssum - K_biv)))
        mu = np.sqrt(np.maximum(0.0, 0.5 * (ssum + K_biv)))
        kappa = 2.0 * nu * mu

    U = 0.5 * (B + A)
    V = 0.5 * (B - A)
    return {
        "a": A, "b": B, "u": U, "v": V,
        "E": E, "K_proj": K_proj, "K_biv": K_biv, "K_lap": K_lap,
        "P": P2, "Q": Q2, "gauss_residual": gauss_residual,
        "class": cls, "nu": nu, "mu": mu, "kappa": kappa,
        "norm_phip": core["norm_phip"], "norm_perp": norm_perp,
        "phi_phip_p": np.broadcast_to(core["dd_p"], (nb, na)),
        "phi_phip_m": np.broadcast_to(core["dd_m"], (nb, na)),
    }


# -- construction and validation -----------------------------------------

def make_surface(psi: HoloCurve, domain: Box | None = None, grid: int = 33) -> SurfacePatch:
    """Validate the minimal time-like conditions and build a SurfacePatch.

    Checks on a grid x grid sample of the domain: |Psi'^2| <= 1e-9 * scale
    (isothermal) and ||Psi'||^2 < 0 strictly (time-like); a NaN sample
    fails them.  Rejection names the violated condition, the worst grid
    point, and its residual.
    Holomorphy holds by construction of HoloCurve.
    """
    domain = domain or psi.domain
    phi = psi.differentiate()
    phi_prime = phi.differentiate()
    a = np.linspace(domain.a0, domain.a1, grid)
    b = np.linspace(domain.b0, domain.b1, grid)
    fm, fp = _null_samples(phi, a, b)
    norm_phi = _combo(fm, fp)

    # Psi'^2 = Phi^2 in null components
    sq_p = np.broadcast_to(_combo(fm, fm), (grid, grid))
    sq_m = np.broadcast_to(_combo(fp, fp), (grid, grid))
    iso = np.maximum(np.abs(sq_p), np.abs(sq_m))
    scale = max(1.0, float(np.max(np.abs(norm_phi))))

    i, k = np.unravel_index(int(np.argmax(iso)), iso.shape)
    worst_iso = float(iso[i, k])
    worst_iso_at = (float(a[k]), float(b[i]))
    if not worst_iso <= ISOTHERMAL_TOL * scale:  # a NaN residual fails too
        raise SurfaceConditionError(
            f"isothermal condition Psi'^2 = 0 violated: residual "
            f"{worst_iso:.3e} at null point (a, b) = {worst_iso_at}"
        )

    i, k = np.unravel_index(int(np.argmax(norm_phi)), norm_phi.shape)
    worst_norm = float(norm_phi[i, k])
    worst_norm_at = (float(a[k]), float(b[i]))
    if not worst_norm < 0.0:
        raise SurfaceConditionError(
            f"time-like condition ||Psi'||^2 < 0 violated: value "
            f"{worst_norm:.3e} at null point (a, b) = {worst_norm_at}"
        )

    record = ValidationRecord(
        max_isothermal=worst_iso,
        max_normsq=worst_norm,
        worst_isothermal_at=worst_iso_at,
        worst_normsq_at=worst_norm_at,
        grid_shape=(grid, grid),
    )
    return SurfacePatch(psi, phi, phi_prime, domain, record)


# -- per-point quantities ------------------------------------------------

def _real_part(w: DVec) -> np.ndarray:
    return np.array(w.re(), dtype=float)


def _imag_part(w: DVec) -> np.ndarray:
    return np.array(w.im(), dtype=float)


def project_normal(phi: DVec, w: DVec) -> DVec:
    """Projection of w onto the normal space at a point with tangent Phi.

    w - (w . conj Phi / ||Phi||^2) Phi - (w . Phi / ||Phi||^2) conj Phi.
    """
    ns = normsq(phi)
    if abs(ns) < 1e-14:
        raise MetricDegeneracyError(
            f"||Phi||^2 = {ns!r} is numerically zero; metric degenerate here"
        )
    c1 = dot(w, phi.conj()) / DNum(ns)
    c2 = dot(w, phi) / DNum(ns)
    return w - phi.scale(c1) - phi.conj().scale(c2)


def point_data(S: SurfacePatch, t: DNum, eps_k: float = EPS_K) -> PointData:
    """Evaluate x, Phi, Phi', Phi'perp, E, K (bivector), class at t."""
    S.domain.check(t)
    psi = S.psi.eval_unchecked(t)
    phi = S.phi.eval_unchecked(t)
    phip = S.phi_prime.eval_unchecked(t)
    ns = normsq(phi)
    if abs(ns) < 1e-14:
        raise MetricDegeneracyError(f"metric degenerate at t = {t!r}")
    E = 0.5 * ns
    K = -4.0 * wedge_normsq(phi, phip) / ns**3
    perp = project_normal(phi, phip)
    cls = _classify(phi, phip, K, eps_k)
    return PointData(
        t=t, x=_real_part(psi), phi=phi, phi_prime=phip,
        phi_perp=perp, E=E, K=K, cls=cls,
    )


def _classify(phi: DVec, phip: DVec, K: float, eps_k: float) -> PointClass:
    sq = dot(phip, phip)
    if classify(sq) is DClass.NULL:
        return PointClass.DEGENERATE
    if abs(K) <= eps_k:
        return PointClass.SUPERCONFORMAL
    return PointClass.GENERIC


def classify_point(S: SurfacePatch, t: DNum, eps_k: float = EPS_K) -> PointClass:
    S.domain.check(t)
    phi = S.phi.eval_unchecked(t)
    phip = S.phi_prime.eval_unchecked(t)
    sq = dot(phip, phip)
    if classify(sq) is DClass.NULL:
        return PointClass.DEGENERATE
    ns = normsq(phi)
    K = -4.0 * wedge_normsq(phi, phip) / ns**3
    return PointClass.SUPERCONFORMAL if abs(K) <= eps_k else PointClass.GENERIC


def gauss_K(
    S: SurfacePatch,
    t: DNum,
    method: str = "bivector",
    h_fd: float = H_FD,
    richardson: bool = True,
) -> float:
    """Gauss curvature at t by one of three routes.

    projection: -4 ||Phi'perp||^2 / ||Phi||^4
    bivector:   -4 ||Phi ^ Phi'||^2 / ||Phi||^6
    laplacian:  lap_h ln(-||Phi||^2) / (-||Phi||^2), central differences
    """
    S.domain.check(t)
    phi = S.phi.eval_unchecked(t)
    ns = normsq(phi)
    if abs(ns) < 1e-14:
        raise MetricDegeneracyError(f"metric degenerate at t = {t!r}")
    if method == "projection":
        perp = project_normal(phi, S.phi_prime.eval_unchecked(t))
        return -4.0 * normsq(perp) / ns**2
    if method == "bivector":
        return -4.0 * wedge_normsq(phi, S.phi_prime.eval_unchecked(t)) / ns**3
    if method == "laplacian":
        box = S.domain
        margin = 2.0 * h_fd
        if not (
            box.a0 + margin <= t.p <= box.a1 - margin
            and box.b0 + margin <= t.m <= box.b1 - margin
        ):
            raise GridError(
                f"laplacian method needs a {margin} interior margin around t = {t!r}"
            )

        def lnE(da, db):
            w = S.phi.eval_unchecked(DNum.from_null(t.p + da, t.m + db))
            return math.log(-normsq(w))

        def lap(h):
            return (lnE(h, h) - lnE(h, -h) - lnE(-h, h) + lnE(-h, -h)) / (h * h)

        val = lap(h_fd)
        if richardson:
            val = (4.0 * lap(h_fd / 2.0) - val) / 3.0
        return val / (-ns)
    raise ValueError(f"unknown method {method!r}")


def second_fundamental(S: SurfacePatch, t: DNum) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(x_u, x_u), sigma(x_u, x_v)) = (Re Phi'perp, Im Phi'perp)."""
    pd = point_data(S, t)
    return _real_part(pd.phi_perp), _imag_part(pd.phi_perp)


def gauss_equation_residual(
    S: SurfacePatch, t: DNum, h_fd: float = H_FD, richardson: bool = True
) -> float:
    """|lap_h ln|E| / E + 2K| at t, the fundamental Gauss equation."""
    K = gauss_K(S, t, "bivector")
    Klap = gauss_K(S, t, "laplacian", h_fd=h_fd, richardson=richardson)
    # lap ln|E| / E = lap ln(-||Phi||^2)/ (||Phi||^2 / 2) = -2 K_lap
    return abs(-2.0 * Klap + 2.0 * K)


# -- normal-curvature hyperbola ------------------------------------------

def _first(mask: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Index (j, i) and null point t of the first grid point, row-major
    over [b, a], where mask holds; None if it holds nowhere."""
    mask = np.broadcast_to(mask, (b.size, a.size))
    if not mask.any():
        return None
    j, i = np.unravel_index(int(np.argmax(mask)), mask.shape)
    return (j, i), DNum.from_null(float(a[i]), float(b[j]))


def position_grid(S: SurfacePatch, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x = Re Psi on the outer [b, a] grid, shape (n, nb, na), from per-axis
    samples: x = (psi-(a) + psi+(b)) / 2."""
    psi_m, psi_p = _null_samples(S.psi, a, b)
    return np.stack([(m + p) / 2.0 for m, p in zip(psi_m, psi_p)])


def canonical_grid(S: SurfacePatch, chart, sa: np.ndarray, sb: np.ndarray) -> dict:
    """Normal-curvature data on the outer [sb, sa] grid of canonical null
    coordinates of a chart.

    Each chart axis is inverted once, t = (sminus^-1(sa), splus^-1(sb)), and
    the per-axis samples of Phi and Phi' are carried to canonical
    coordinates by the chain rule Phi~ = Phi t', Phi~' = Phi' t'^2 + Phi t''.
    Returns [sb, sa] arrays E, K, nu, mu, kappa and (n, nb, na) arrays x =
    Re Psi and the unit-frame values sigma11 = sigma(X1, X1), sigma12 =
    sigma(X1, X2).  Raises, naming the first offending point:
    OutOfDomainError, DegeneratePointError, and MetricDegeneracyError for
    E >= 0 or ||Phi~||^2 numerically zero.
    """
    sm, sp = chart.sminus, chart.splus
    a = sm.inv(np.asarray(sa, dtype=float))
    b = sp.inv(np.asarray(sb, dtype=float))
    box = S.domain
    out_a = ~((box.a0 - 1e-12 <= a) & (a <= box.a1 + 1e-12))
    out_b = ~((box.b0 - 1e-12 <= b) & (b <= box.b1 + 1e-12))
    bad = _first(out_a[None, :] | out_b[:, None], a, b)
    if bad is not None:
        box.check(bad[1])

    fm, fp = _null_samples(S.phi, a, b)
    gm, gp = _null_samples(S.phi_prime, a, b)
    bad = _first(_degenerate(_combo(gm, gm), _combo(gp, gp)), a, b)
    if bad is not None:
        raise DegeneratePointError(f"degenerate point at t = {bad[1]!r}")

    # per-axis t' = 1 / s' and t'' = -s'' / s'^3
    d1a, d1b = sm.dfwd(a)[None, :], sp.dfwd(b)[:, None]
    d2a, d2b = sm.d2fwd(a)[None, :], sp.d2fwd(b)[:, None]
    t1a, t1b = 1.0 / d1a, 1.0 / d1b
    t2a, t2b = -d2a / d1a**3, -d2b / d1b**3
    core = _outer_core(
        ([f * t1a for f in fm], [f * t1b for f in fp]),
        ([g * t1a**2 + f * t2a for f, g in zip(fm, gm)],
         [g * t1b**2 + f * t2b for f, g in zip(fp, gp)]),
    )
    ns = core["norm_phi"]
    E = 0.5 * ns
    bad = _first(E >= 0.0, a, b)
    if bad is not None:
        raise MetricDegeneracyError(f"non-negative E = {float(E[bad[0]])} at t = {bad[1]!r}")
    bad = _first(np.abs(ns) < 1e-14, a, b)
    if bad is not None:
        raise MetricDegeneracyError(
            f"||Phi||^2 = {float(ns[bad[0]])!r} is numerically zero; metric degenerate here"
        )

    # sigma(x_u, x_u) = Re Phi~'perp, sigma(x_u, x_v) = Im Phi~'perp,
    # scaled to the unit frame X1 = x_u / sqrt(-E), X2 = x_v / sqrt(-E)
    perp = list(core["perp"])
    sig11 = np.stack([(q + qb) / 2.0 for q, qb in perp]) / (-E)
    sig12 = np.stack([(qb - q) / 2.0 for q, qb in perp]) / (-E)
    nu = np.sqrt(np.maximum(0.0, _combo(sig11, sig11)))
    mu = np.sqrt(np.maximum(0.0, _combo(sig12, sig12)))
    return {
        "x": position_grid(S, a, b), "E": E, "K": -nu * nu + mu * mu,
        "nu": nu, "mu": mu, "kappa": 2.0 * nu * mu,
        "sigma11": sig11, "sigma12": sig12,
    }


def hyperbola_at(S: SurfacePatch, s: DNum, chart) -> NormalHyperbola:
    """Normal-curvature data at the canonical coordinate s of a chart:
    canonical_grid on a grid of one point."""
    g = canonical_grid(S, chart, np.array([s.p]), np.array([s.m]))
    nu, mu = float(g["nu"][0, 0]), float(g["mu"][0, 0])
    sig11, sig12 = g["sigma11"][:, 0, 0], g["sigma12"][:, 0, 0]
    tol = 1e-10 * (1.0 + nu + mu)
    return NormalHyperbola(
        n1=None if nu <= tol else sig11 / nu,
        n2=None if mu <= tol else sig12 / mu,
        nu=nu, mu=mu, kappa=float(g["kappa"][0, 0]), K=float(g["K"][0, 0]),
        E=float(g["E"][0, 0]), frame_degenerate=nu <= tol or mu <= tol,
    )


def hyperbola_sample(
    sigma_uu: np.ndarray, sigma_uv: np.ndarray, E: float, psi: float
) -> np.ndarray:
    """sigma(X, X) on the unit tangent hyperbola at parameter psi.

    Returns sigma(X1, X1) cosh(2 psi) + sigma(X1, X2) sinh(2 psi), where
    the unit-frame values are the raw coordinate values scaled by 1/(-E).
    """
    sig11 = np.asarray(sigma_uu, dtype=float) / (-E)
    sig12 = np.asarray(sigma_uv, dtype=float) / (-E)
    return sig11 * math.cosh(2.0 * psi) + sig12 * math.sinh(2.0 * psi)


# -- sampled immersion check ---------------------------------------------

def mean_curvature_residual(x: np.ndarray, du: float, dv: float) -> float:
    """Max interior Euclidean norm of the hyperbolic laplacian of a
    sampled immersion x[v, u, component]; ~0 exactly when minimal."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[0] < 3 or x.shape[1] < 3:
        raise GridError("need a (nv, nu, n) sample with nv, nu >= 3")
    acc = 0.0
    for k in range(x.shape[2]):
        lap = kernels.hyperbolic_laplacian(x[:, :, k], du, dv)
        acc = acc + lap**2
    return float(np.max(np.sqrt(acc)))
