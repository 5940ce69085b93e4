"""Conjugate surface, associated family, motions and homotheties.

Each construction is one expression transform, *_exprs(exprs, box, ...)
-> (new_exprs, new_box), on the expressions of Psi and their null box.
The CLI applies it to the expressions of a spec; conjugate_surface,
associated_surface, homothety and apply_motion apply it to the null-axis
expressions of a patch.  So no resampling or interpolation is involved:
the conjugate surface reflects the q-axis, the associated family scales
the two axes by e^{-theta} and e^{theta}, and motions act componentwise
on the curve.  The transport of a canonical chart along each
construction is canon.transport_chart.
"""

from __future__ import annotations

import math

import numpy as np

from . import sexpr
from .errors import MotionError
from .geom import SurfacePatch, make_surface
from .holo import Box, HoloCurve, HoloMap, RealFn1
from .value import Value, setfield

#: Residual tolerance for membership of A in O(R^n_1), relative to
#: max(1, max |A_ij|^2): a boost by beta has entries of size cosh(beta), and
#: A^T eta A rounds on products of two of them.
MOTION_TOL = 1e-10


class Motion(Value):
    """A Minkowski motion x -> A x + b (possibly improper)."""

    __slots__ = _fields = ("A", "b")

    def __init__(self, A, b):
        try:
            A = np.asarray(A, dtype=float)
            b = np.asarray(b, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise MotionError("motion A and b must be arrays of numbers") from None
        if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
            raise MotionError(f"motion shapes {A.shape}, {b.shape} are inconsistent")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise MotionError("motion entries must be finite")
        eta = np.diag([-1.0] + [1.0] * (A.shape[0] - 1))
        residual = float(np.max(np.abs(A.T @ eta @ A - eta)))
        if residual > MOTION_TOL * max(1.0, float(np.max(np.abs(A))) ** 2):
            raise MotionError(
                f"A is not a Minkowski motion: |A^T eta A - eta| = {residual:.3e}"
            )
        setfield(self, "A", A)
        setfield(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Motion":
        return cls(np.eye(n), np.zeros(n))

    @classmethod
    def boost(cls, n: int, i: int, k: int, beta: float) -> "Motion":
        """Hyperbolic rotation in the (i, k) plane; i must be the time axis 0."""
        A = np.eye(n)
        A[i, i] = A[k, k] = math.cosh(beta)
        A[i, k] = A[k, i] = math.sinh(beta)
        return cls(A, np.zeros(n))


def conjugate_exprs(exprs, box: Box):
    """The harmonic conjugate Psi^(s) = j Psi(j s) and its domain jD."""
    jt = sexpr.mul(sexpr.Jay(), sexpr.Var())
    new_exprs = [sexpr.mul(sexpr.Jay(), sexpr.subst_t(e, jt)) for e in exprs]
    return new_exprs, Box(-box.a1, -box.a0, box.b0, box.b1)


def associated_exprs(exprs, box: Box, theta: float):
    """Psi_theta = e^{j theta} Psi, written as exp(theta*j) so that j = -+1
    lowers the coefficient exactly to e^{-theta} on a and e^{theta} on b."""
    coeff = sexpr.App("exp", sexpr.mul(sexpr.Num(theta), sexpr.Jay()))
    return [sexpr.mul(coeff, e) for e in exprs], box


def homothety_exprs(exprs, box: Box, k: float):
    """Psi^ = k Psi for k > 0."""
    if k <= 0:
        raise ValueError("homothety coefficient must be positive")
    return [sexpr.mul(sexpr.Num(k), e) for e in exprs], box


def motion_exprs(exprs, box: Box, M: Motion):
    """Psi^ = A Psi + b, row by row."""
    if M.n != len(exprs):
        raise MotionError(f"motion dimension {M.n} != surface dimension {len(exprs)}")
    new_exprs = []
    for row, bk in zip(M.A, M.b):
        acc = sexpr.Num(float(bk))
        for coeff, e in zip(row, exprs):
            acc = sexpr.add(acc, sexpr.mul(sexpr.Num(float(coeff)), e))
        new_exprs.append(acc)
    return new_exprs, box


def _per_axis(S: SurfacePatch, transform, *args) -> SurfacePatch:
    """Apply an expression transform to the null-axis expressions of Psi,
    lower each result onto its axis (j = -1 on a, +1 on b) and validate."""
    comps = S.psi.components
    minus, box = transform([c.fminus.expr for c in comps], S.domain, *args)
    plus, _ = transform([c.fplus.expr for c in comps], S.domain, *args)
    return make_surface(HoloCurve(tuple(
        HoloMap(RealFn1(sexpr.subst_j(m, -1.0)), RealFn1(sexpr.subst_j(p, 1.0)), box)
        for m, p in zip(minus, plus)
    )))


def conjugate_surface(S: SurfacePatch) -> SurfacePatch:
    """The harmonic-conjugate surface Psi^(s) = j Psi(j s) on the domain jD.

    In null components: fminus^(a) = -fminus(-a), fplus^ = fplus; the map
    x -> y is an anti-isometry (E^ = -E at corresponding points).
    """
    return _per_axis(S, conjugate_exprs)


def associated_surface(S: SurfacePatch, theta: float) -> SurfacePatch:
    """Psi_theta = e^{j theta} Psi: null axes scaled by e^{-theta}, e^{theta}.

    An isometry for every theta (E_theta = E identically).
    """
    return _per_axis(S, associated_exprs, theta)


def apply_motion(S: SurfacePatch, M: Motion) -> SurfacePatch:
    """Psi^ = A Psi + b componentwise; all curvature invariants and point
    classes are unchanged at corresponding points."""
    return _per_axis(S, motion_exprs, M)


def homothety(S: SurfacePatch, k: float) -> SurfacePatch:
    """Psi^ = k Psi for k > 0; E^ = k^2 E and Phi^'^2 = k^2 Phi'^2."""
    return _per_axis(S, homothety_exprs, k)
