"""Vectors over the double numbers with the indefinite metric (-, +, ..., +).

The first coordinate carries the minus sign.  Dimension is a runtime value;
3 <= n <= 16 is supported so low-dimensional galleries can coexist.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dnum import DNum
from .errors import DimensionError

MIN_DIM = 3
MAX_DIM = 16

#: Relative tolerance for the (asserted) vanishing imaginary part of a.conj(a).
IM_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class DVec:
    components: tuple[DNum, ...]

    def __post_init__(self):
        n = len(self.components)
        if not MIN_DIM <= n <= MAX_DIM:
            raise DimensionError(f"dimension {n} outside supported range [3, 16]")

    @property
    def n(self) -> int:
        return len(self.components)

    def __getitem__(self, k) -> DNum:
        return self.components[k]

    def __add__(self, other: "DVec") -> "DVec":
        _check_dims(self, other)
        return DVec(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "DVec") -> "DVec":
        _check_dims(self, other)
        return DVec(tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, c: DNum | float) -> "DVec":
        return DVec(tuple(a * c for a in self.components))

    def conj(self) -> "DVec":
        return DVec(tuple(a.conj() for a in self.components))

    def re(self) -> tuple[float, ...]:
        return tuple(a.re for a in self.components)

    def im(self) -> tuple[float, ...]:
        return tuple(a.im for a in self.components)

    def to_json(self):
        return [a.to_json() for a in self.components]

    @classmethod
    def from_json(cls, obj) -> "DVec":
        return cls(tuple(DNum.from_json(c) for c in obj))

    @classmethod
    def from_reals(cls, xs) -> "DVec":
        return cls(tuple(DNum(float(x)) for x in xs))


def _check_dims(a: DVec, b: DVec):
    if a.n != b.n:
        raise DimensionError(f"dimension mismatch: {a.n} vs {b.n}")


def dot(a: DVec, b: DVec) -> DNum:
    """Bilinear scalar product -a1*b1 + sum_k>=2 ak*bk, valued in the algebra."""
    _check_dims(a, b)
    acc = -(a[0] * b[0])
    for k in range(1, a.n):
        acc = acc + a[k] * b[k]
    return acc


def normsq(a: DVec) -> float:
    """Real norm square a . conj(a) = -|a1|^2 + sum |ak|^2.  May be negative.

    The imaginary residue of the product is asserted small rather than
    silently dropped; a large residue means a conjugation bug upstream.
    """
    z = dot(a, a.conj())
    scale = max(1.0, abs(z.re))
    assert abs(z.im) <= IM_RESIDUE_TOL * scale, (
        f"normsq imaginary residue {z.im} exceeds tolerance (scale {scale})"
    )
    return z.re


def wedge_normsq(a: DVec, b: DVec) -> float:
    """Norm square of the bivector a ^ b.

    Equals normsq(a)*normsq(b) - |conj(a) . b|^2; used by the bivector form
    of the Gauss curvature.
    """
    _check_dims(a, b)
    return normsq(a) * normsq(b) - dot(a.conj(), b).modsq()
