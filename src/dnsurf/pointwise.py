"""Surface quantities at one point, through DNum and mink.DVec.

This is the per-point reference route: point data, the point class, the
Gauss curvature by three independent routes (projection, bivector,
finite-difference laplacian), the second fundamental form and the Gauss
equation residual.  Each evaluates Phi and Phi' at one double number t,
so it shares no arithmetic with the batched grids of dnsurf.geom, which
the CLI runs; the tests hold the two routes against each other.  The
hyperbola of normal curvature at a canonical coordinate, hyperbola_at,
is the exception: it reads geom.canonical_grid on a grid of one point.

No CLI command imports this module, nor mink through it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dnum import DClass, DNum, classify
from .errors import GridError, MetricDegeneracyError
from .geom import EPS_K, H_FD, SurfacePatch, canonical_grid
from .mink import DVec, dot, normsq, wedge_normsq


class PointClass(enum.Enum):
    DEGENERATE = "degenerate"
    SUPERCONFORMAL = "superconformal"
    GENERIC = "generic"


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
