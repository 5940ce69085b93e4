"""Holomorphic maps on the double numbers, stored in factored null form.

Because the algebra splits as two real lines, a holomorphic map is exactly
a pair of univariate real functions acting on the null coordinates
(a, b) = (u - v, u + v):

    f(a q + b qbar) = fminus(a) q + fplus(b) qbar.

Every downstream computation (derivatives, primitives, root extraction,
canonization) then reduces to independent 1-D problems on the two axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import sexpr
from .dnum import DNum
from .errors import GridError, OutOfDomainError
from .mink import DVec

#: Step for the finite-difference fallback derivative of callable-backed fns.
_FD_H = 1e-6


@dataclass(frozen=True)
class RealFn1:
    """A univariate real function with first and second derivative handles.

    When ``expr`` is present the derivatives are exact symbolic ones and
    further differentiation stays symbolic; otherwise ``deriv`` falls back
    to central finite differences for the new second derivative.
    """

    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]
    expr: Optional[sexpr.Expr] = None

    @classmethod
    def from_expr(cls, e: sexpr.Expr, jval: float = 1.0) -> "RealFn1":
        e1 = sexpr.diff_t(e)
        e2 = sexpr.diff_t(e1)
        return cls(
            f=lambda x, _e=e: sexpr.eval_expr(_e, x, jval),
            df=lambda x, _e=e1: sexpr.eval_expr(_e, x, jval),
            d2f=lambda x, _e=e2: sexpr.eval_expr(_e, x, jval),
            expr=e,
        )

    def __call__(self, x):
        return self.f(x)

    def deriv(self) -> "RealFn1":
        if self.expr is not None:
            return RealFn1.from_expr(sexpr.diff_t(self.expr))
        d2 = self.d2f

        def d3f(x, _d2=d2):
            return (_d2(x + _FD_H) - _d2(x - _FD_H)) / (2.0 * _FD_H)

        return RealFn1(f=self.df, df=self.d2f, d2f=d3f)


def sample(f, x):
    """f(x) as a float for scalar x, else as an array shaped like x.

    Constant functions evaluate to a bare float; this broadcasts them.
    """
    x = np.asarray(x, dtype=float)
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    return float(y) if y.ndim == 0 else y


# -- domains -------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Rectangle [a0, a1] x [b0, b1] in null coordinates (a, b)."""

    a0: float
    a1: float
    b0: float
    b1: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a0, self.a1, self.b0, self.b1))):
            raise GridError(f"non-finite domain box {self}")
        if not (self.a0 < self.a1 and self.b0 < self.b1):
            raise GridError(f"empty domain box {self}")

    def check(self, t: DNum):
        if not (self.a0 - 1e-12 <= t.p <= self.a1 + 1e-12):
            raise OutOfDomainError(
                f"null coordinate a={t.p!r} outside [{self.a0}, {self.a1}]"
            )
        if not (self.b0 - 1e-12 <= t.m <= self.b1 + 1e-12):
            raise OutOfDomainError(
                f"null coordinate b={t.m!r} outside [{self.b0}, {self.b1}]"
            )

    def swapped(self) -> "Box":
        return Box(self.b0, self.b1, self.a0, self.a1)


# -- holomorphic maps ----------------------------------------------------

@dataclass(frozen=True)
class HoloMap:
    fminus: RealFn1
    fplus: RealFn1
    domain: Box

    @classmethod
    def from_expr(cls, e: sexpr.Expr, domain: Box) -> "HoloMap":
        return cls(
            fminus=RealFn1.from_expr(sexpr.subst_j(e, -1.0), jval=-1.0),
            fplus=RealFn1.from_expr(sexpr.subst_j(e, 1.0), jval=1.0),
            domain=domain,
        )

    def eval(self, t: DNum) -> DNum:
        self.domain.check(t)
        return DNum.from_null(self.fminus.f(t.p), self.fplus.f(t.m))

    def eval_unchecked(self, t: DNum) -> DNum:
        return DNum.from_null(self.fminus.f(t.p), self.fplus.f(t.m))

    def differentiate(self) -> "HoloMap":
        return HoloMap(self.fminus.deriv(), self.fplus.deriv(), self.domain)

    def conj(self) -> "HoloMap":
        """conj(f)(t) = conj(f(conj t)): swap null components and axes."""
        return HoloMap(self.fplus, self.fminus, self.domain.swapped())

    def primitive(self, base: DNum) -> "HoloMap":
        """F with F' = self and F(base) = 0.

        Symbolic antiderivatives are used when the rules apply; otherwise
        each null axis falls back to adaptive quadrature from the base
        point (absolute tolerance 1e-12 per call).
        """
        self.domain.check(base)
        return HoloMap(
            _primitive_axis(self.fminus, base.p),
            _primitive_axis(self.fplus, base.m),
            self.domain,
        )


def _primitive_axis(fn: RealFn1, x0: float) -> RealFn1:
    if fn.expr is not None:
        F = sexpr.antiderivative(fn.expr)
        if F is not None:
            F0 = sexpr.eval_expr(F, x0)
            return RealFn1.from_expr(sexpr.sub(F, sexpr.Num(float(F0))))

    def F(x, _f=fn.f, _x0=x0):
        from scipy.integrate import quad  # only this fallback needs scipy

        val, _ = quad(_f, _x0, x, epsabs=1e-12, epsrel=1e-12, limit=200)
        return val

    return RealFn1(f=F, df=fn.f, d2f=fn.df)


@dataclass(frozen=True)
class HoloCurve:
    """n holomorphic maps sharing one domain; houses Psi and Phi."""

    components: tuple[HoloMap, ...]

    def __post_init__(self):
        doms = {c.domain for c in self.components}
        if len(doms) != 1:
            raise GridError("HoloCurve components must share one domain")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def domain(self) -> Box:
        return self.components[0].domain

    @classmethod
    def from_exprs(cls, exprs, domain: Box) -> "HoloCurve":
        return cls(tuple(HoloMap.from_expr(e, domain) for e in exprs))

    def eval(self, t: DNum) -> DVec:
        self.domain.check(t)
        return DVec(tuple(c.eval_unchecked(t) for c in self.components))

    def eval_unchecked(self, t: DNum) -> DVec:
        return DVec(tuple(c.eval_unchecked(t) for c in self.components))

    def differentiate(self) -> "HoloCurve":
        return HoloCurve(tuple(c.differentiate() for c in self.components))

    def conj(self) -> "HoloCurve":
        return HoloCurve(tuple(c.conj() for c in self.components))

    def primitive(self, base: DNum) -> "HoloCurve":
        return HoloCurve(tuple(c.primitive(base) for c in self.components))


# -- sampled Cauchy-Riemann check ----------------------------------------

def cr_residual(g: np.ndarray, h: np.ndarray, du: float, dv: float) -> float:
    """Max interior residual |h_u - g_v| + |h_v - g_u| of f = g + j h.

    g and h are sampled on a uniform (u, v) grid, axis 0 = v, axis 1 = u.
    Vanishes to O(step^2) exactly when the sampled map is holomorphic.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.shape != h.shape or min(g.shape) < 3:
        raise GridError("need matching grids with at least 3 points per axis")
    gu = (g[1:-1, 2:] - g[1:-1, :-2]) / (2.0 * du)
    gv = (g[2:, 1:-1] - g[:-2, 1:-1]) / (2.0 * dv)
    hu = (h[1:-1, 2:] - h[1:-1, :-2]) / (2.0 * du)
    hv = (h[2:, 1:-1] - h[:-2, 1:-1]) / (2.0 * dv)
    return float(np.max(np.abs(hu - gv) + np.abs(hv - gu)))
