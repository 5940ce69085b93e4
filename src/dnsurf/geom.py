"""Surface kernel, batched: validation, the invariant sweep, the canonical
grid and mesh positions, all from per-axis samples of the null axes.

A surface patch is a holomorphic curve Psi with x = Re Psi, Phi = Psi',
subject to the isothermal condition Phi^2 = 0 and the time-like condition
E = ||Phi||^2 / 2 < 0.  All curvature formulas below are expressed through
Phi and Phi' only.  Because Phi(a q + b qbar) = Phi-(a) q + Phi+(b) qbar,
each quantity on an [b, a] grid combines samples taken once per axis by
_axis_samples (via _null_samples, or axis_square for the null components
P, Q of Phi'^2); nothing here is evaluated point by point.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegeneratePointError,
    GridError,
    MetricDegeneracyError,
    SurfaceConditionError,
)
from .holo import Box, HoloCurve, sample
from .kernels import EPS_CLS, hyperbolic_laplacian
from .value import Value, setfield

#: Relative tolerance for the isothermal residual |Psi'^2| on the grid.
ISOTHERMAL_TOL = 1e-9

#: Default absolute scale for deciding K == 0 (superconformal points).
EPS_K = 1e-8

#: Finite-difference step for the laplacian curvature formula.
H_FD = 1e-3


class ValidationRecord(Value):
    """max_isothermal: the largest raw |Psi'^2| null component on the
    validation grid; max_normsq: the largest ||Phi||^2, accepted iff < 0."""

    __slots__ = _fields = (
        "max_isothermal", "max_normsq", "worst_isothermal_at", "worst_normsq_at", "grid_shape",
    )

    def __init__(
        self,
        max_isothermal: float,
        max_normsq: float,
        worst_isothermal_at: tuple[float, float],
        worst_normsq_at: tuple[float, float],
        grid_shape: tuple[int, int],
    ):
        setfield(self, "max_isothermal", max_isothermal)
        setfield(self, "max_normsq", max_normsq)
        setfield(self, "worst_isothermal_at", worst_isothermal_at)
        setfield(self, "worst_normsq_at", worst_normsq_at)
        setfield(self, "grid_shape", grid_shape)


class SurfacePatch(Value):
    __slots__ = _fields = ("psi", "phi", "phi_prime", "domain", "validation")

    def __init__(
        self,
        psi: HoloCurve,
        phi: HoloCurve,
        phi_prime: HoloCurve,
        domain: Box,
        validation: ValidationRecord,
    ):
        setfield(self, "psi", psi)
        setfield(self, "phi", phi)
        setfield(self, "phi_prime", phi_prime)
        setfield(self, "domain", domain)
        setfield(self, "validation", validation)

    @property
    def n(self) -> int:
        return self.psi.n


#: mink names that the benchmark's tracer test (perfbench/tests) reaches
#: through geom, as geom.dot.  mink is imported on first access, not with
#: geom.
_MINK_NAMES = ("DVec", "dot", "normsq", "wedge_normsq")


def __getattr__(name: str):
    if name not in _MINK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import mink

    return getattr(mink, name)


# -- vectorized grid evaluation ------------------------------------------

def _metric_sign(k: int) -> float:
    return -1.0 if k == 0 else 1.0


def _axis_samples(curve: HoloCurve, side: int, x):
    """Each component's null component on one axis at x: fminus(x) for
    side 0 (the a axis), fplus(x) for side 1 (the b axis)."""
    return [sample((c.fminus, c.fplus)[side].f, x) for c in curve.components]


def _null_samples(curve: HoloCurve, a: np.ndarray, b: np.ndarray):
    """Per-axis null samples of each component, shaped to broadcast to the
    outer [b, a] grid: (fminus(a) as (1, na) rows, fplus(b) as (nb, 1) columns)."""
    return (
        [f[None, :] for f in _axis_samples(curve, 0, a)],
        [f[:, None] for f in _axis_samples(curve, 1, b)],
    )


def axis_square(S: SurfacePatch, side: int, x):
    """The null component of Phi'^2 = P(a) q + Q(b) qbar on one axis: P(x)
    for side 0, Q(x) for side 1; a float for scalar x, else an array."""
    g = _axis_samples(S.phi_prime, side, x)
    return _combo(g, g)


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
    wedge = norm_phi * _combo(gm, gp) - cp_p * cp_m
    return {
        "norm_phi": norm_phi,
        "P": _combo(gm, gm), "Q": _combo(gp, gp), "dd_p": dd_p, "dd_m": dd_m,
        "perp": perp, "K_biv": -4.0 * wedge / norm_phi**3,
    }


def grid_quantities(S: SurfacePatch, na: int, nb: int, box: Box | None = None) -> dict:
    """All sweep quantities on an na x nb null-coordinate grid.

    Returns 2-D arrays (index order [b, a]) for u, v, E, K_proj, K_biv,
    K_lap, P, Q, the Gauss-equation residual, and the point-class codes.
    K_lap is Richardson-extrapolated from the steps H_FD and H_FD / 2.
    The laplacian entries require the 2*H_FD margin inside the patch
    domain; the caller is responsible for choosing a box that has it.
    """
    if na < 2 or nb < 2:
        raise GridError("grid needs at least 2 points per axis")
    a, b = null_axes(box or S.domain, na, nb)
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

    lap = (4.0 * lap_lnE(H_FD / 2.0) - lap_lnE(H_FD)) / 3.0
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
        "phi_phip_p": np.broadcast_to(core["dd_p"], (nb, na)),
        "phi_phip_m": np.broadcast_to(core["dd_m"], (nb, na)),
    }


def null_axes(box: Box, na: int, nb: int):
    """The null axes (a, b) of an na x nb grid spanning box."""
    return np.linspace(box.a0, box.a1, na), np.linspace(box.b0, box.b1, nb)


def energy_grid(S: SurfacePatch, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E = ||Phi||^2 / 2 on the outer [b, a] grid, as grid_quantities has it."""
    return 0.5 * _combo(*_null_samples(S.phi, a, b))


def degenerate_grid(S: SurfacePatch, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where Phi'^2 is null on the outer [b, a] grid: grid_quantities'
    class 0, without the sweep, whose laplacian stencil needs a margin."""
    return _degenerate(axis_square(S, 0, a)[None, :], axis_square(S, 1, b)[:, None])


# -- construction and validation -----------------------------------------

def make_surface(psi: HoloCurve) -> SurfacePatch:
    """Validate the minimal time-like conditions and build a SurfacePatch.

    Checks on a 33 x 33 sample of psi's domain, in this order: every
    sample of Psi' is finite; each null axis's component of Psi'^2 is at
    most ISOTHERMAL_TOL times that axis's Euclidean size max(1, sum
    phi_k^2) (isothermal); ||Psi'||^2 < 0 strictly (time-like), which a
    NaN fails.  Rejection names the violated condition, the worst grid
    point, and its residual.  Sampling and the products that follow run
    with numpy's overflow and invalid-value warnings off: what they would
    warn of, an inf or a NaN, is refused here instead.
    Holomorphy holds by construction of HoloCurve.
    """
    domain, grid = psi.domain, 33
    phi = psi.differentiate()
    phi_prime = phi.differentiate()
    a, b = null_axes(domain, grid, grid)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fm, fp = _null_samples(phi, a, b)
        finite = np.ones((grid, grid), dtype=bool)
        for f in (*fm, *fp):
            finite &= np.isfinite(f)
        if not finite.all():
            i, k = np.unravel_index(int(np.argmin(finite)), finite.shape)
            raise SurfaceConditionError(
                f"non-finite sample of Psi' at null point (a, b) = {(float(a[k]), float(b[i]))}"
            )
        norm_phi = _combo(fm, fp)

        # Psi'^2 = Phi^2 in null components, each against the Euclidean size
        # of its own axis: the associated family scales the a axis by
        # e^{-theta} and the b axis by e^{theta}, which ||Phi||^2 does not see
        sq_p, sq_m = np.abs(_combo(fm, fm)), np.abs(_combo(fp, fp))
        rel = np.broadcast_to(
            np.maximum(sq_p / _axis_size(fm), sq_m / _axis_size(fp)), (grid, grid)
        )
    iso = np.broadcast_to(np.maximum(sq_p, sq_m), (grid, grid))

    i, k = np.unravel_index(int(np.argmax(rel)), rel.shape)
    if not rel[i, k] <= ISOTHERMAL_TOL:  # a NaN residual fails too
        raise SurfaceConditionError(
            f"isothermal condition Psi'^2 = 0 violated: residual "
            f"{float(iso[i, k]):.3e} at null point (a, b) = {(float(a[k]), float(b[i]))}"
        )
    i, k = np.unravel_index(int(np.argmax(iso)), iso.shape)
    worst_iso = float(iso[i, k])
    worst_iso_at = (float(a[k]), float(b[i]))

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


def _axis_size(samples) -> float:
    """max(1, max over the axis of sum_k phi_k^2): the Euclidean size of
    the per-axis null samples of Phi on one axis."""
    return max(1.0, float(np.max(sum(f * f for f in samples))))


# -- canonical grid and mesh positions -----------------------------------

def _first(mask: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Index (j, i) and null point t of the first grid point, row-major
    over [b, a], where mask holds; None if it holds nowhere."""
    mask = np.broadcast_to(mask, (b.size, a.size))
    if not mask.any():
        return None
    from .dnum import DNum

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

    Each chart axis is inverted once, (a, b) = chart.inv(sa, sb).  With
    the per-axis t' = 1 / s', Phi~ = Phi t' and Phi~' = Phi' t'^2 + Phi t'',
    whose tangent t'' term the projection drops: Phi~'perp is Phi'perp with
    its q, qbar components scaled by t'_a^2, t'_b^2.  Returns
    [sb, sa] arrays E, K, nu, mu, kappa and (n, nb, na) arrays x = Re Psi
    and the unit-frame values sigma11 = sigma(X1, X1), sigma12 =
    sigma(X1, X2).  Raises ValueError for a conjugated chart, whose grid no
    caller needs; chart.inv's OutOfDomainError for an s out of the chart's
    range; and, naming the first offending point, DegeneratePointError and
    MetricDegeneracyError for E >= 0 or ||Phi~||^2 numerically zero.
    """
    if chart.conjugate_output:
        raise ValueError("canonical_grid refuses a conjugated chart")
    a, b = chart.inv(np.asarray(sa, dtype=float), np.asarray(sb, dtype=float))

    phip_s = _null_samples(S.phi_prime, a, b)
    bad = _first(_degenerate(*(_combo(g, g) for g in phip_s)), a, b)
    if bad is not None:
        raise DegeneratePointError(f"degenerate point at t = {bad[1]!r}")
    core = _outer_core(_null_samples(S.phi, a, b), phip_s)

    ta, tb = 1.0 / chart.sminus.dfwd(a)[None, :], 1.0 / chart.splus.dfwd(b)[:, None]
    ns = core["norm_phi"] * (ta * tb)
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
    perp = [(q * ta**2, qb * tb**2) for q, qb in core["perp"]]
    sig11 = np.stack([(q + qb) / 2.0 for q, qb in perp]) / (-E)
    sig12 = np.stack([(qb - q) / 2.0 for q, qb in perp]) / (-E)
    nu = np.sqrt(np.maximum(0.0, _combo(sig11, sig11)))
    mu = np.sqrt(np.maximum(0.0, _combo(sig12, sig12)))
    return {
        "x": position_grid(S, a, b), "E": E, "K": -nu * nu + mu * mu,
        "nu": nu, "mu": mu, "kappa": 2.0 * nu * mu,
        "sigma11": sig11, "sigma12": sig12,
    }


# -- sampled immersion check ---------------------------------------------

def mean_curvature_residual(x: np.ndarray, du: float, dv: float) -> float:
    """Max interior Euclidean norm of the hyperbolic laplacian of a
    sampled immersion x[v, u, component]; ~0 exactly when minimal."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[0] < 3 or x.shape[1] < 3:
        raise GridError("need a (nv, nu, n) sample with nv, nu >= 3")
    acc = 0.0
    for k in range(x.shape[2]):
        lap = hyperbolic_laplacian(x[:, :, k], du, dv)
        acc = acc + lap**2
    return float(np.max(np.sqrt(acc)))
