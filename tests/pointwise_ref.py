"""Reference route for the tests: surface quantities at one double number.

Point data, the point class, the Gauss curvature by three independent
routes (projection, bivector, finite-difference laplacian), the second
fundamental form and the Gauss equation residual, each from Phi and Phi'
at one DNum t combined through mink.DVec arithmetic.  It shares no
arithmetic with the batched grids of dnsurf.geom, which the CLI runs, so
the tests hold those grids against it.  eval_dnum evaluates an expression
directly over the algebra, the reference for the null-axis lowering of
dnsurf.holo.

map_at and at evaluate a holomorphic map or curve at one point from one
sample of each null-axis function; grid_at reads the shipped grid of
geom.grid_quantities at one point, for the comparisons.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from dnsurf import geom
from dnsurf.dnum import DClass, DNum, J, classify
from dnsurf.errors import GridError, MetricDegeneracyError
from dnsurf.geom import EPS_K, H_FD, SurfacePatch
from dnsurf.holo import sample
from dnsurf.mink import DVec, dot, normsq, wedge_normsq
from dnsurf.sexpr import App, Bin, Jay, Neg, Num, Pi, Pow, Var


class PointClass(enum.IntEnum):
    """Point classes, valued as the class codes of geom.grid_quantities."""

    DEGENERATE = 0
    SUPERCONFORMAL = 1
    GENERIC = 2


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


# -- evaluation over the algebra -----------------------------------------

_ENTIRE = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh, "exp": np.exp}


def elementary(name: str, a: DNum) -> DNum:
    """Apply an entire elementary function componentwise in the null basis."""
    fn = _ENTIRE[name]
    return DNum.from_null(float(fn(a.p)), float(fn(a.m)))


def eval_dnum(e, t: DNum) -> DNum:
    """The expression e at t, evaluated over the double numbers."""
    if isinstance(e, Num):
        return DNum(e.value)
    if isinstance(e, Pi):
        return DNum(math.pi)
    if isinstance(e, Var):
        return t
    if isinstance(e, Jay):
        return J
    if isinstance(e, Neg):
        return -eval_dnum(e.arg, t)
    if isinstance(e, Bin):
        a = eval_dnum(e.left, t)
        b = eval_dnum(e.right, t)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Pow):
        base = eval_dnum(e.base, t)
        return DNum.from_null(base.p ** e.exp, base.m ** e.exp)
    if isinstance(e, App):
        return elementary(e.func, eval_dnum(e.arg, t))
    raise TypeError(f"not an Expr: {e!r}")


def map_at(f, t: DNum) -> DNum:
    """A HoloMap at t, from one sample of each null-axis function."""
    return DNum.from_null(sample(f.fminus.f, t.p), sample(f.fplus.f, t.m))


def at(curve, t: DNum) -> DVec:
    """A HoloCurve at t, one map_at per component."""
    return DVec(tuple(map_at(c, t) for c in curve.components))


def grid_at(S: SurfacePatch, t: DNum) -> dict:
    """geom.grid_quantities at the one null point t: the [0, 0] corner of
    a 2 x 2 grid."""
    g = geom.grid_quantities(S, 2, 2, box=geom.Box(t.p, t.p + 0.1, t.m, t.m + 0.1))
    return {key: value[0, 0] for key, value in g.items()}


# -- per-point quantities ------------------------------------------------

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
    phi = at(S.phi, t)
    phip = at(S.phi_prime, t)
    ns = normsq(phi)
    if abs(ns) < 1e-14:
        raise MetricDegeneracyError(f"metric degenerate at t = {t!r}")
    return PointData(
        t=t, x=np.array(at(S.psi, t).re(), dtype=float), phi=phi, phi_prime=phip,
        phi_perp=project_normal(phi, phip), E=0.5 * ns,
        K=-4.0 * wedge_normsq(phi, phip) / ns**3, cls=_classify(phi, phip, eps_k),
    )


def _classify(phi: DVec, phip: DVec, eps_k: float) -> PointClass:
    if classify(dot(phip, phip)) is DClass.NULL:
        return PointClass.DEGENERATE
    K = -4.0 * wedge_normsq(phi, phip) / normsq(phi)**3
    return PointClass.SUPERCONFORMAL if abs(K) <= eps_k else PointClass.GENERIC


def classify_point(S: SurfacePatch, t: DNum, eps_k: float = EPS_K) -> PointClass:
    S.domain.check(t)
    return _classify(at(S.phi, t), at(S.phi_prime, t), eps_k)


def gauss_K(S: SurfacePatch, t: DNum, method: str = "bivector", richardson: bool = True) -> float:
    """Gauss curvature at t by one of three routes.

    projection: -4 ||Phi'perp||^2 / ||Phi||^4
    bivector:   -4 ||Phi ^ Phi'||^2 / ||Phi||^6
    laplacian:  lap_h ln(-||Phi||^2) / (-||Phi||^2), central differences
    """
    S.domain.check(t)
    phi = at(S.phi, t)
    ns = normsq(phi)
    if abs(ns) < 1e-14:
        raise MetricDegeneracyError(f"metric degenerate at t = {t!r}")
    if method == "projection":
        return -4.0 * normsq(project_normal(phi, at(S.phi_prime, t))) / ns**2
    if method == "bivector":
        return -4.0 * wedge_normsq(phi, at(S.phi_prime, t)) / ns**3
    if method != "laplacian":
        raise ValueError(f"unknown method {method!r}")
    box, margin = S.domain, 2.0 * H_FD
    if not (box.a0 + margin <= t.p <= box.a1 - margin
            and box.b0 + margin <= t.m <= box.b1 - margin):
        raise GridError(f"laplacian method needs a {margin} interior margin around t = {t!r}")

    def lnE(da, db):
        return math.log(-normsq(at(S.phi, DNum.from_null(t.p + da, t.m + db))))

    def lap(h):
        return (lnE(h, h) - lnE(h, -h) - lnE(-h, h) + lnE(-h, -h)) / (h * h)

    val = lap(H_FD)
    if richardson:
        val = (4.0 * lap(H_FD / 2.0) - val) / 3.0
    return val / (-ns)


def second_fundamental(S: SurfacePatch, t: DNum) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(x_u, x_u), sigma(x_u, x_v)) = (Re Phi'perp, Im Phi'perp)."""
    perp = point_data(S, t).phi_perp
    return np.array(perp.re(), dtype=float), np.array(perp.im(), dtype=float)


def gauss_equation_residual(S: SurfacePatch, t: DNum) -> float:
    """|lap_h ln|E| / E + 2K| at t, the fundamental Gauss equation."""
    # lap ln|E| / E = lap ln(-||Phi||^2) / (||Phi||^2 / 2) = -2 K_lap
    return abs(-2.0 * gauss_K(S, t, "laplacian") + 2.0 * gauss_K(S, t, "bivector"))
