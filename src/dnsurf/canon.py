"""Canonical coordinates: ds = (Phi'^2)^{1/4} dt as two 1-D quadratures.

Phi'^2 factors over the null basis as P(a) q + Q(b) qbar, so the chart
splits into two strictly increasing maps a -> s_a, b -> s_b obtained by
integrating the positive fourth roots P^{1/4}, Q^{1/4}.  The additive
constant is fixed by sending the base point to s = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from . import kernels
from .dnum import DNum, EPS_CLS
from .errors import ChartModelError, DegeneratePointError, QuadratureError
from .geom import SurfacePatch
from .holo import Box, RealFn1, sample

#: Quadrature node ladder: start here, double until converged.
_MIN_NODES = 1025
_MAX_NODES = 2**17 + 1

#: Absolute convergence target for the cumulative quadrature.
QUAD_TOL = 1e-10


@dataclass(frozen=True)
class Map1D:
    """A strictly increasing 1-D map with inverse and two derivatives.

    Each of fwd, inv, dfwd and d2fwd takes a float or an array and returns
    a float or an array of the same shape.
    """

    fwd: Callable
    inv: Callable
    dfwd: Callable
    d2fwd: Callable
    lo: float
    hi: float
    nodes: int
    deriv_min: float

    @property
    def slo(self) -> float:
        return self.fwd(self.lo)

    @property
    def shi(self) -> float:
        return self.fwd(self.hi)

    @classmethod
    def linear(cls, k: float, c: float, lo: float, hi: float) -> "Map1D":
        if k <= 0:
            raise ValueError("linear chart axis needs positive slope")
        return cls(
            fwd=lambda x: k * x + c,
            inv=lambda s: (s - c) / k,
            dfwd=lambda x: sample(lambda _: k, x),
            d2fwd=lambda x: sample(lambda _: 0.0, x),
            lo=lo, hi=hi, nodes=2, deriv_min=k,
        )

    @classmethod
    def from_quadrature(
        cls, fn: RealFn1, lo: float, hi: float, x0: float, tol: float = QUAD_TOL
    ) -> "Map1D":
        """Cumulative integral of a positive integrand fn on [lo, hi],
        anchored to 0 at x0, with node count doubled until the composite
        Simpson totals converge to tol."""
        n = _MIN_NODES
        prev_total = None
        while True:
            xs = np.linspace(lo, hi, n)
            ys = sample(fn.f, xs)
            F = kernels.cumulative_simpson(ys, (hi - lo) / (n - 1))
            total = float(F[-1])
            if prev_total is not None and abs(total - prev_total) <= tol:
                break
            if n >= _MAX_NODES:
                raise QuadratureError(
                    f"cumulative quadrature on [{lo}, {hi}] did not reach "
                    f"tolerance {tol} with {n} nodes"
                )
            prev_total = total
            n = 2 * (n - 1) + 1

        spline = CubicSpline(xs, F)
        val0 = float(spline(x0))
        deriv_min = float(np.min(ys))

        def fwd(x):
            return sample(spline, x) - val0

        def inv(s):
            # np.interp start, then 3 Newton steps clamped to [lo, hi]; a
            # point whose integrand is not positive keeps its last iterate
            target = np.asarray(s, dtype=float) + val0
            x = np.interp(target, F, xs)
            live = np.ones(x.shape, dtype=bool)
            for _ in range(3):
                d = sample(fn.f, x)
                live &= d > 0.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    step = (spline(x) - target) / d
                x = np.where(live, np.clip(x - step, lo, hi), x)
            return float(x) if x.ndim == 0 else x

        return cls(
            fwd=fwd, inv=inv,
            dfwd=lambda x: sample(fn.f, x),
            d2fwd=lambda x: sample(fn.df, x),
            lo=lo, hi=hi, nodes=n, deriv_min=deriv_min,
        )


def map_scale_output(m: Map1D, c: float) -> Map1D:
    """x -> c * m(x) for c > 0."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return Map1D(
        fwd=lambda x: c * m.fwd(x),
        inv=lambda s: m.inv(s / c),
        dfwd=lambda x: c * m.dfwd(x),
        d2fwd=lambda x: c * m.d2fwd(x),
        lo=m.lo, hi=m.hi, nodes=m.nodes, deriv_min=c * m.deriv_min,
    )


def map_reflect_input(m: Map1D) -> Map1D:
    """x -> -m(-x): increasing again, on the reflected interval."""
    return Map1D(
        fwd=lambda x: -m.fwd(-x),
        inv=lambda s: -m.inv(-s),
        dfwd=lambda x: m.dfwd(-x),
        d2fwd=lambda x: -m.d2fwd(-x),
        lo=-m.hi, hi=-m.lo, nodes=m.nodes, deriv_min=m.deriv_min,
    )


@dataclass(frozen=True)
class CanonicalChart:
    """The reparametrization t <-> s, one monotone map per null axis.

    When conjugate_output is set the chart represents t -> conj(s):
    the per-axis maps are unchanged but their values land in the swapped
    null slots of s (the t = +-conj(s) + c branch of the uniqueness
    theorem).
    """

    sminus: Map1D
    splus: Map1D
    base: DNum
    conjugate_output: bool = False

    def fwd(self, t: DNum) -> DNum:
        va = self.sminus.fwd(t.p)
        vb = self.splus.fwd(t.m)
        if self.conjugate_output:
            return DNum.from_null(vb, va)
        return DNum.from_null(va, vb)

    def inv(self, s: DNum) -> DNum:
        sp, sm = (s.m, s.p) if self.conjugate_output else (s.p, s.m)
        return DNum.from_null(self.sminus.inv(sp), self.splus.inv(sm))

    def conjugated(self) -> "CanonicalChart":
        return replace(self, conjugate_output=not self.conjugate_output)

    @property
    def t_box(self) -> Box:
        return Box(self.sminus.lo, self.sminus.hi, self.splus.lo, self.splus.hi)

    @property
    def s_box(self) -> Box:
        a0, a1 = self.sminus.slo, self.sminus.shi
        b0, b1 = self.splus.slo, self.splus.shi
        if self.conjugate_output:
            a0, a1, b0, b1 = b0, b1, a0, a1
        return Box(a0, a1, b0, b1)


@dataclass(frozen=True)
class ChartRelation:
    sign: int
    conjugated: bool
    c: DNum
    residual: float


# -- null components of Phi'^2 as 1-D functions --------------------------

def axis_squares(S: SurfacePatch) -> tuple[RealFn1, RealFn1]:
    """(P, Q) with Phi'^2 = P(a) q + Q(b) qbar, with two derivatives."""
    minus = [c.fminus for c in S.phi_prime.components]
    plus = [c.fplus for c in S.phi_prime.components]
    return _square_combo(minus), _square_combo(plus)


def _square_combo(fns) -> RealFn1:
    signs = [-1.0 if k == 0 else 1.0 for k in range(len(fns))]

    def f(x):
        return sum(s * fn.f(x) ** 2 for s, fn in zip(signs, fns))

    def df(x):
        return sum(2.0 * s * fn.f(x) * fn.df(x) for s, fn in zip(signs, fns))

    def d2f(x):
        return sum(
            2.0 * s * (fn.df(x) ** 2 + fn.f(x) * fn.d2f(x))
            for s, fn in zip(signs, fns)
        )

    return RealFn1(f=f, df=df, d2f=d2f)


def _quartic_root(P: RealFn1) -> RealFn1:
    """(P)^{1/4} with exact first and second derivatives."""

    def f(x):
        return P.f(x) ** 0.25

    def df(x):
        return P.df(x) / (4.0 * P.f(x) ** 0.75)

    def d2f(x):
        p, dp, d2p = P.f(x), P.df(x), P.d2f(x)
        return d2p / (4.0 * p**0.75) - 3.0 * dp**2 / (16.0 * p**1.75)

    return RealFn1(f=f, df=df, d2f=d2f)


# -- canonization --------------------------------------------------------

def canonize(
    S: SurfacePatch,
    base: DNum | None = None,
    tol: float = QUAD_TOL,
    grid: int = 257,
) -> CanonicalChart:
    """Canonical chart of a general-type surface patch.

    Requires classify(Phi'^2) = Positive on the whole domain (checked on a
    per-axis sample of size ``grid``); raises DegeneratePointError naming
    the failing null coordinate otherwise.
    """
    box = S.domain
    if base is None:
        base = DNum.from_null(0.5 * (box.a0 + box.a1), 0.5 * (box.b0 + box.b1))
    box.check(base)

    P, Q = axis_squares(S)
    a = np.linspace(box.a0, box.a1, grid)
    b = np.linspace(box.b0, box.b1, grid)
    Pv, Qv = sample(P.f, a), sample(Q.f, b)
    thr = EPS_CLS * (1.0 + max(float(np.max(np.abs(Pv))), float(np.max(np.abs(Qv)))))
    if float(np.min(Pv)) <= thr:
        i = int(np.argmin(Pv))
        raise DegeneratePointError(
            f"Phi'^2 not in the positive cone: q component P(a) = {Pv[i]:.6g} "
            f"at a = {a[i]:.6g}"
        )
    if float(np.min(Qv)) <= thr:
        i = int(np.argmin(Qv))
        raise DegeneratePointError(
            f"Phi'^2 not in the positive cone: qbar component Q(b) = {Qv[i]:.6g} "
            f"at b = {b[i]:.6g}"
        )

    sminus = Map1D.from_quadrature(_quartic_root(P), box.a0, box.a1, base.p, tol)
    splus = Map1D.from_quadrature(_quartic_root(Q), box.b0, box.b1, base.m, tol)
    return CanonicalChart(sminus=sminus, splus=splus, base=base)


#: 5-point Gauss-Legendre rule on [-1, 1]: nodes and weights.
_GL_R1, _GL_R2 = np.sqrt(5.0 + np.array([-2.0, 2.0]) * np.sqrt(10.0 / 7.0)) / 3.0
_GL_W1, _GL_W2 = (322.0 + np.array([13.0, -13.0]) * np.sqrt(70.0)) / 900.0
_GL_X = np.array([-_GL_R2, -_GL_R1, 0.0, _GL_R1, _GL_R2])
_GL_W = np.array([_GL_W2, _GL_W1, 128.0 / 225.0, _GL_W1, _GL_W2])


def verify_canonical(S: SurfacePatch, chart: CanonicalChart, grid: int = 65) -> float:
    """Worst relative defect of the chart on grid nodes of each axis.

    Two defects per axis, on grid nodes x_i (64 sub-intervals by default):
    the derivative against the integrand, |P(a) / Sminus'(a)^4 - 1| (and
    Q, Splus on the b axis), and the map against its derivative,
    |fwd(x_i+1) - fwd(x_i) - I_i| / I_i, with I_i a 5-point Gauss-Legendre
    integral of dfwd over [x_i, x_i+1].  The second catches quadrature and
    interpolation error in fwd, which the first cannot see: for a chart
    from canonize, dfwd is the integrand itself.
    """
    worst = 0.0
    for sq, m in zip(axis_squares(S), (chart.sminus, chart.splus)):
        x = np.linspace(m.lo, m.hi, grid)
        worst = max(worst, float(np.max(np.abs(sample(sq.f, x) / m.dfwd(x) ** 4 - 1.0))))
        half = 0.5 * np.diff(x)[:, None]
        mid = 0.5 * (x[1:] + x[:-1])[:, None]
        integral = half[:, 0] * (m.dfwd(mid + half * _GL_X) @ _GL_W)
        worst = max(worst, float(np.max(np.abs(np.diff(m.fwd(x)) - integral) / integral)))
    return worst


def relate_charts(
    c1: CanonicalChart, c2: CanonicalChart, probes: int = 8
) -> ChartRelation:
    """Fit the uniqueness model s1 = sign * s2 + c or s1 = sign * conj(s2) + c.

    Probes are spread over the shared t-domain; the best of the four
    affine models must fit within 1e-7, else ChartModelError.
    """
    if probes < 3:
        raise ValueError("need at least 3 probe points")
    lo_a = max(c1.sminus.lo, c2.sminus.lo)
    hi_a = min(c1.sminus.hi, c2.sminus.hi)
    lo_b = max(c1.splus.lo, c2.splus.lo)
    hi_b = min(c1.splus.hi, c2.splus.hi)
    if not (lo_a < hi_a and lo_b < hi_b):
        raise ChartModelError("charts have no overlapping t-domain")

    ta = np.linspace(lo_a, hi_a, probes)
    tb = np.linspace(lo_b, hi_b, probes)
    ts = [DNum.from_null(float(x), float(y)) for x, y in zip(ta, tb)]
    s1 = [c1.fwd(t) for t in ts]
    s2 = [c2.fwd(t) for t in ts]

    best = None
    for conjugated in (False, True):
        w = [x.conj() for x in s2] if conjugated else s2
        for sign in (1, -1):
            diffs = [u - (sign * v) for u, v in zip(s1, w)]
            c_re = sum(d.re for d in diffs) / len(diffs)
            c_im = sum(d.im for d in diffs) / len(diffs)
            c = DNum(c_re, c_im)
            res = max(
                max(abs((d - c).re), abs((d - c).im)) for d in diffs
            )
            cand = ChartRelation(sign=sign, conjugated=conjugated, c=c, residual=res)
            if best is None or res < best.residual:
                best = cand
    if best.residual > 1e-7:
        raise ChartModelError(
            f"no affine uniqueness model fits; best residual {best.residual:.3e}"
        )
    return best


def isotropic_chart(chart: CanonicalChart) -> CanonicalChart:
    """Canonical isotropic parameters: null coordinates scaled by 1/sqrt 2."""
    r = 1.0 / np.sqrt(2.0)
    return CanonicalChart(
        sminus=map_scale_output(chart.sminus, r),
        splus=map_scale_output(chart.splus, r),
        base=chart.base,
        conjugate_output=chart.conjugate_output,
    )
