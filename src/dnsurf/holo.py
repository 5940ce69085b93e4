"""Holomorphic maps on the double numbers, stored in factored null form.

Because the algebra splits as two real lines, a holomorphic map is exactly
a pair of univariate real functions acting on the null coordinates
(a, b) = (u - v, u + v):

    f(a q + b qbar) = fminus(a) q + fplus(b) qbar.

Every downstream computation (derivatives, root extraction, canonization)
then reduces to independent 1-D problems on the two axes.

The batched grids of dnsurf.geom read the per-axis functions through
sample().  Evaluation at one double number, HoloMap.eval and
HoloCurve.eval, serves the per-point route of dnsurf.pointwise; the
curve's value is a mink.DVec, and mink is imported only when one is built.
"""

from __future__ import annotations

import math

import numpy as np

from . import sexpr
from .dnum import DNum
from .errors import GridError, OutOfDomainError
from .value import Value, setfield


class RealFn1(Value):
    """A univariate real function given by a j-free expression in t.

    f and df evaluate the expression and its exact symbolic derivative;
    the derivative expression is formed once, on first use.
    """

    __slots__ = ("expr", "_deriv")
    _fields = ("expr",)

    def __init__(self, expr: sexpr.Expr):
        setfield(self, "expr", expr)
        setfield(self, "_deriv", None)

    def f(self, x):
        return sexpr.eval_expr(self.expr, x)

    def df(self, x):
        return self.deriv.f(x)

    @property
    def deriv(self) -> "RealFn1":
        if self._deriv is None:
            setfield(self, "_deriv", RealFn1(sexpr.diff_t(self.expr)))
        return self._deriv


def sample(f, x):
    """f(x) as a float for scalar x, else as an array shaped like x.

    Constant functions evaluate to a bare float; this broadcasts them.
    """
    x = np.asarray(x, dtype=float)
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    return float(y) if y.ndim == 0 else y


# -- domains -------------------------------------------------------------

class Box(Value):
    """Rectangle [a0, a1] x [b0, b1] in null coordinates (a, b)."""

    __slots__ = _fields = ("a0", "a1", "b0", "b1")

    def __init__(self, a0: float, a1: float, b0: float, b1: float):
        setfield(self, "a0", a0)
        setfield(self, "a1", a1)
        setfield(self, "b0", b0)
        setfield(self, "b1", b1)
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

class HoloMap(Value):
    __slots__ = _fields = ("fminus", "fplus", "domain")

    def __init__(self, fminus: RealFn1, fplus: RealFn1, domain: Box):
        setfield(self, "fminus", fminus)
        setfield(self, "fplus", fplus)
        setfield(self, "domain", domain)

    @classmethod
    def from_expr(cls, e: sexpr.Expr, domain: Box) -> "HoloMap":
        return cls(
            fminus=RealFn1(sexpr.subst_j(e, -1.0)),
            fplus=RealFn1(sexpr.subst_j(e, 1.0)),
            domain=domain,
        )

    def eval(self, t: DNum) -> DNum:
        self.domain.check(t)
        return DNum.from_null(self.fminus.f(t.p), self.fplus.f(t.m))

    def eval_unchecked(self, t: DNum) -> DNum:
        return DNum.from_null(self.fminus.f(t.p), self.fplus.f(t.m))

    def differentiate(self) -> "HoloMap":
        return HoloMap(self.fminus.deriv, self.fplus.deriv, self.domain)

    def conj(self) -> "HoloMap":
        """conj(f)(t) = conj(f(conj t)): swap null components and axes."""
        return HoloMap(self.fplus, self.fminus, self.domain.swapped())


class HoloCurve(Value):
    """n holomorphic maps sharing one domain; houses Psi and Phi."""

    __slots__ = _fields = ("components",)

    def __init__(self, components: tuple[HoloMap, ...]):
        setfield(self, "components", components)
        doms = {c.domain for c in components}
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

    def eval(self, t: DNum):
        """Psi(t) as a mink.DVec, after checking t against the domain."""
        from .mink import DVec

        self.domain.check(t)
        return DVec(tuple(c.eval_unchecked(t) for c in self.components))

    def eval_unchecked(self, t: DNum):
        """Psi(t) as a mink.DVec, for a t already checked by the caller."""
        from .mink import DVec

        return DVec(tuple(c.eval_unchecked(t) for c in self.components))

    def differentiate(self) -> "HoloCurve":
        return HoloCurve(tuple(c.differentiate() for c in self.components))

    def conj(self) -> "HoloCurve":
        return HoloCurve(tuple(c.conj() for c in self.components))


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
