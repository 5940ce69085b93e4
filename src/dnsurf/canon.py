"""Canonical coordinates: ds = (Phi'^2)^{1/4} dt as two 1-D quadratures.

Phi'^2 factors over the null basis as P(a) q + Q(b) qbar, so the chart
splits into two strictly increasing maps a -> s_a, b -> s_b obtained by
integrating the positive fourth roots P^{1/4}, Q^{1/4}.  The additive
constant is fixed by sending the base point to s = 0.  P and Q come from
geom.axis_square, the per-axis samples that geom's grids are built from:
canonize's positive-cone check reads them, each integrand is their fourth
root, and verify_canonical holds each map's derivative against them.  A
map carries its first derivative only; the canonical grid needs no more
(see geom.canonical_grid).

Each map is a composite Simpson integral on a node-doubling ladder,
interpolated between nodes by a piecewise cubic Hermite polynomial whose
node slopes are the integrand itself, so only numpy is needed.

transport_chart carries a verified chart along the constructions of
dnsurf.family without recomputing it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import kernels
from .dnum import DNum
from .errors import ChartModelError, DegeneratePointError, OutOfDomainError, QuadratureError
from .geom import SurfacePatch, axis_square, null_axes
from .holo import Box, sample
from .value import Value, setfield

#: Quadrature node ladder: start here, double until converged.
_MIN_NODES = 1025
_MAX_NODES = 2**17 + 1

#: Absolute convergence target for the cumulative quadrature.
QUAD_TOL = 1e-10


class Map1D(Value):
    """A strictly increasing 1-D map with its inverse and derivative.

    Each of fwd, inv and dfwd takes a float or an array and returns
    a float or an array of the same shape.  slo = fwd(lo) and shi = fwd(hi)
    bound its range, read from the map's ends once, when it is built.
    """

    _fields = ("fwd", "inv", "dfwd", "lo", "hi", "nodes", "deriv_min")
    __slots__ = (*_fields, "slo", "shi")

    def __init__(self, fwd: Callable, inv: Callable, dfwd: Callable,
                 lo: float, hi: float, nodes: int, deriv_min: float):
        setfield(self, "fwd", fwd)
        setfield(self, "inv", inv)
        setfield(self, "dfwd", dfwd)
        setfield(self, "lo", lo)
        setfield(self, "hi", hi)
        setfield(self, "nodes", nodes)
        setfield(self, "deriv_min", deriv_min)
        setfield(self, "slo", fwd(lo))
        setfield(self, "shi", fwd(hi))

    @classmethod
    def linear(cls, k: float, c: float, lo: float, hi: float) -> "Map1D":
        if k <= 0:
            raise ValueError("linear chart axis needs positive slope")
        return cls(
            fwd=lambda x: k * x + c,
            inv=lambda s: (s - c) / k,
            dfwd=lambda x: sample(lambda _: k, x),
            lo=lo, hi=hi, nodes=2, deriv_min=k,
        )

    @classmethod
    def from_quadrature(cls, fn: Callable, lo: float, hi: float, x0: float) -> "Map1D":
        """Cumulative integral of a positive integrand fn on [lo, hi],
        anchored to 0 at x0, with node count doubled until the composite
        Simpson totals converge to QUAD_TOL.  fn takes an array of x; the
        map's dfwd is fn itself."""
        n = _MIN_NODES
        prev_total = None
        while True:
            xs = np.linspace(lo, hi, n)
            ys = sample(fn, xs)
            F = kernels.cumulative_simpson(ys, (hi - lo) / (n - 1))
            total = float(F[-1])
            if prev_total is not None and abs(total - prev_total) <= QUAD_TOL:
                break
            if n >= _MAX_NODES:
                raise QuadratureError(
                    f"cumulative quadrature on [{lo}, {hi}] did not reach "
                    f"tolerance {QUAD_TOL} with {n} nodes"
                )
            prev_total = total
            n = 2 * (n - 1) + 1

        interp = _hermite(xs, F, ys)
        val0 = float(interp(x0))
        deriv_min = float(np.min(ys))

        def fwd(x):
            return sample(interp, x) - val0

        def inv(s):
            # np.interp start, then 3 Newton steps clamped to [lo, hi]; a
            # point whose integrand is not positive keeps its last iterate
            target = np.asarray(s, dtype=float) + val0
            x = np.interp(target, F, xs)
            live = np.ones(x.shape, dtype=bool)
            for _ in range(3):
                d = sample(fn, x)
                live &= d > 0.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    step = (interp(x) - target) / d
                x = np.where(live, np.clip(x - step, lo, hi), x)
            return float(x) if x.ndim == 0 else x

        return cls(
            fwd=fwd, inv=inv,
            dfwd=lambda x: sample(fn, x),
            lo=lo, hi=hi, nodes=n, deriv_min=deriv_min,
        )


def _hermite(xs: np.ndarray, F: np.ndarray, dF: np.ndarray) -> Callable:
    """Piecewise cubic Hermite interpolant of values F and slopes dF on the
    uniform nodes xs; the end cubics extend past [xs[0], xs[-1]].

    Takes a float or an array; returns a numpy float or an array shaped
    like it.
    """
    lo, h, last = float(xs[0]), float(xs[1] - xs[0]), xs.size - 2
    d = np.diff(F) / h
    c1, c2 = dF[:-1], (3.0 * d - 2.0 * dF[:-1] - dF[1:]) / h
    c3 = (dF[:-1] + dF[1:] - 2.0 * d) / (h * h)

    def interp(x):
        x = np.asarray(x, dtype=float)
        # fmax/fmin send a NaN index to interval 0; r keeps the NaN
        i = np.fmin(np.fmax(np.floor((x - lo) / h), 0.0), last).astype(np.intp)
        r = x - xs[i]
        return F[i] + r * (c1[i] + r * (c2[i] + r * c3[i]))

    return interp


def map_scale_output(m: Map1D, c: float) -> Map1D:
    """x -> c * m(x) for c > 0."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return Map1D(
        fwd=lambda x: c * m.fwd(x),
        inv=lambda s: m.inv(s / c),
        dfwd=lambda x: c * m.dfwd(x),
        lo=m.lo, hi=m.hi, nodes=m.nodes, deriv_min=c * m.deriv_min,
    )


def map_reflect_input(m: Map1D) -> Map1D:
    """x -> -m(-x): increasing again, on the reflected interval."""
    return Map1D(
        fwd=lambda x: -m.fwd(-x),
        inv=lambda s: -m.inv(-s),
        dfwd=lambda x: m.dfwd(-x),
        lo=-m.hi, hi=-m.lo, nodes=m.nodes, deriv_min=m.deriv_min,
    )


class CanonicalChart(Value):
    """The reparametrization t <-> s, one monotone map per null axis.

    fwd and inv are the only route between t and s.  Both work on the null
    coordinates, one float or array per axis, and map each axis on its own,
    without broadcasting one against the other: fwd(a, b) -> (sa, sb) and
    inv(sa, sb) -> (a, b).

    When conjugate_output is set the chart represents t -> conj(s):
    the per-axis maps are unchanged but their values land in the swapped
    null slots of s (the t = +-conj(s) + c branch of the uniqueness
    theorem), so sminus gives sb and splus gives sa.
    """

    __slots__ = _fields = ("sminus", "splus", "base", "conjugate_output")

    def __init__(self, sminus: Map1D, splus: Map1D, base: DNum, conjugate_output: bool = False):
        setfield(self, "sminus", sminus)
        setfield(self, "splus", splus)
        setfield(self, "base", base)
        setfield(self, "conjugate_output", conjugate_output)

    def fwd(self, a, b):
        """(sa, sb), the canonical null coordinates of a and b."""
        va, vb = self.sminus.fwd(a), self.splus.fwd(b)
        return (vb, va) if self.conjugate_output else (va, vb)

    def inv(self, sa, sb):
        """(a, b), the null coordinates of t at the canonical ones sa, sb.

        Raises OutOfDomainError for an s outside its map's range [slo, shi],
        with Box.check's 1e-12 slack, naming the first offending coordinate,
        of sa before sb: Map1D.inv clamps to [lo, hi], so an s out of range
        would otherwise come back as a domain-edge t.
        """
        conj = self.conjugate_output
        maps = (self.splus, self.sminus) if conj else (self.sminus, self.splus)
        x, y = (_checked_inv(m, s, name) for m, s, name in zip(maps, (sa, sb), ("sa", "sb")))
        return (y, x) if conj else (x, y)

    def conjugated(self) -> "CanonicalChart":
        return self.replace(conjugate_output=not self.conjugate_output)

    @property
    def s_box(self) -> Box:
        a0, a1 = self.sminus.slo, self.sminus.shi
        b0, b1 = self.splus.slo, self.splus.shi
        if self.conjugate_output:
            a0, a1, b0, b1 = b0, b1, a0, a1
        return Box(a0, a1, b0, b1)


def _checked_inv(m: Map1D, s, name: str):
    """m.inv(s), refusing an s outside [m.slo, m.shi] by name."""
    arr = np.asarray(s, dtype=float)
    out = ~((m.slo - 1e-12 <= arr) & (arr <= m.shi + 1e-12))  # a NaN is out too
    if out.any():
        raise OutOfDomainError(
            f"canonical null coordinate {name}={float(arr.flat[np.argmax(out)])!r} "
            f"outside [{m.slo}, {m.shi}]"
        )
    return m.inv(s)


class ChartRelation(Value):
    __slots__ = _fields = ("sign", "conjugated", "c", "residual")

    def __init__(self, sign: int, conjugated: bool, c: DNum, residual: float):
        setfield(self, "sign", sign)
        setfield(self, "conjugated", conjugated)
        setfield(self, "c", c)
        setfield(self, "residual", residual)


def transport_chart(
    chart: CanonicalChart, construction: str, param: float | None = None
) -> CanonicalChart:
    """Transport a verified canonical chart along a construction.

    conjugate:      t = j s, realized by reflecting the q-axis map.
    associated:     t = e^{-theta/2} s, axes scaled by e^{-+theta/2}.
    homothety(k):   t = s / sqrt(k), both axes scaled by sqrt(k).
    motion:         unchanged.
    """
    if construction == "conjugate":
        return chart.replace(sminus=map_reflect_input(chart.sminus),
                             base=DNum.from_null(-chart.base.p, chart.base.m))
    if construction == "associated":
        if param is None:
            raise ValueError("associated transport needs theta")
        return chart.replace(sminus=map_scale_output(chart.sminus, math.exp(-param / 2.0)),
                             splus=map_scale_output(chart.splus, math.exp(param / 2.0)))
    if construction == "homothety":
        if param is None or param <= 0:
            raise ValueError("homothety transport needs k > 0")
        r = math.sqrt(param)
        return chart.replace(sminus=map_scale_output(chart.sminus, r),
                             splus=map_scale_output(chart.splus, r))
    if construction == "motion":
        return chart
    raise ValueError(f"unknown construction {construction!r}")


# -- canonization --------------------------------------------------------

def canonize(S: SurfacePatch, base: DNum | None = None) -> CanonicalChart:
    """Canonical chart of a general-type surface patch.

    Requires classify(Phi'^2) = Positive on the whole domain (checked on a
    per-axis sample of 257 points); raises DegeneratePointError naming the
    failing null coordinate otherwise.
    """
    box = S.domain
    if base is None:
        base = DNum.from_null(0.5 * (box.a0 + box.a1), 0.5 * (box.b0 + box.b1))
    box.check(base)

    a, b = null_axes(box, 257, 257)
    Pv, Qv = axis_square(S, 0, a), axis_square(S, 1, b)
    thr = kernels.EPS_CLS * (1.0 + max(float(np.max(np.abs(Pv))), float(np.max(np.abs(Qv)))))
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

    sminus = Map1D.from_quadrature(lambda x: axis_square(S, 0, x) ** 0.25, box.a0, box.a1, base.p)
    splus = Map1D.from_quadrature(lambda x: axis_square(S, 1, x) ** 0.25, box.b0, box.b1, base.m)
    return CanonicalChart(sminus=sminus, splus=splus, base=base)


#: 5-point Gauss-Legendre rule on [-1, 1]: nodes and weights.
_GL_R1, _GL_R2 = np.sqrt(5.0 + np.array([-2.0, 2.0]) * np.sqrt(10.0 / 7.0)) / 3.0
_GL_W1, _GL_W2 = (322.0 + np.array([13.0, -13.0]) * np.sqrt(70.0)) / 900.0
_GL_X = np.array([-_GL_R2, -_GL_R1, 0.0, _GL_R1, _GL_R2])
_GL_W = np.array([_GL_W2, _GL_W1, 128.0 / 225.0, _GL_W1, _GL_W2])


def verify_canonical(S: SurfacePatch, chart: CanonicalChart) -> float:
    """Worst relative defect of the chart on grid nodes of each axis.

    Two defects per axis, on 65 grid nodes x_i (64 sub-intervals):
    the derivative against the integrand, |P(a) / Sminus'(a)^4 - 1| (and
    Q, Splus on the b axis), and the map against its derivative,
    |fwd(x_i+1) - fwd(x_i) - I_i| / I_i, with I_i a 5-point Gauss-Legendre
    integral of dfwd over [x_i, x_i+1].  The second catches quadrature and
    interpolation error in fwd, which the first cannot see: for a chart
    from canonize, dfwd is the integrand itself.
    """
    worst = 0.0
    for side, m in enumerate((chart.sminus, chart.splus)):
        x = np.linspace(m.lo, m.hi, 65)
        worst = max(worst, float(np.max(np.abs(axis_square(S, side, x) / m.dfwd(x) ** 4 - 1.0))))
        half = 0.5 * np.diff(x)[:, None]
        mid = 0.5 * (x[1:] + x[:-1])[:, None]
        integral = half[:, 0] * (m.dfwd(mid + half * _GL_X) @ _GL_W)
        worst = max(worst, float(np.max(np.abs(np.diff(m.fwd(x)) - integral) / integral)))
    return worst


def relate_charts(c1: CanonicalChart, c2: CanonicalChart) -> ChartRelation:
    """Fit the uniqueness model s1 = sign * s2 + c or s1 = sign * conj(s2) + c.

    8 probe points are spread over the shared t-domain and mapped by both
    charts at once; the best of the four affine models must fit within
    1e-7, else ChartModelError.
    """
    lo_a = max(c1.sminus.lo, c2.sminus.lo)
    hi_a = min(c1.sminus.hi, c2.sminus.hi)
    lo_b = max(c1.splus.lo, c2.splus.lo)
    hi_b = min(c1.splus.hi, c2.splus.hi)
    if not (lo_a < hi_a and lo_b < hi_b):
        raise ChartModelError("charts have no overlapping t-domain")

    ta, tb = np.linspace(lo_a, hi_a, 8), np.linspace(lo_b, hi_b, 8)
    # rows re and im of s = s_u + j s_v, from its null coordinates (sa, sb)
    (sa1, sb1), (sa2, sb2) = c1.fwd(ta, tb), c2.fwd(ta, tb)
    s1 = np.stack([(sa1 + sb1) / 2.0, (sb1 - sa1) / 2.0])
    s2 = np.stack([(sa2 + sb2) / 2.0, (sb2 - sa2) / 2.0])

    best = None
    for conjugated in (False, True):
        w = s2 * [[1.0], [-1.0]] if conjugated else s2
        for sign in (1, -1):
            diffs = s1 - sign * w
            c = diffs.mean(axis=1)
            res = float(np.max(np.abs(diffs - c[:, None])))
            cand = ChartRelation(sign=sign, conjugated=conjugated,
                                 c=DNum(float(c[0]), float(c[1])), residual=res)
            if best is None or res < best.residual:
                best = cand
    if best.residual > 1e-7:
        raise ChartModelError(
            f"no affine uniqueness model fits; best residual {best.residual:.3e}"
        )
    return best


def isotropic_chart(chart: CanonicalChart) -> CanonicalChart:
    """Canonical isotropic parameters: null coordinates scaled by 1/sqrt 2."""
    return transport_chart(chart, "homothety", 0.5)
