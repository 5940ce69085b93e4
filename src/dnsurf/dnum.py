"""Double numbers u + j*v with j*j = +1.

The algebra splits into two real lines through the idempotents
q = (1-j)/2 and qbar = (1+j)/2, so every operation reduces to a pair of
independent real operations on the null components (p, m) = (u-v, u+v).
The (re, im) pair is the canonical stored form; the null view is computed
on demand.
"""

from __future__ import annotations

import enum
import math
import re as _re
from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleError, RootDomainError

#: Default relative tolerance used when deciding membership in the null cone.
EPS_CLS = 1e-9


class DClass(enum.Enum):
    """Coarse classification of a double number."""

    NULL = "null"
    POSITIVE = "positive"
    OTHER_INVERTIBLE = "other_invertible"


@dataclass(frozen=True)
class DNum:
    re: float
    im: float = 0.0

    # -- null-basis view -------------------------------------------------

    @property
    def p(self) -> float:
        """Coefficient of q = (1-j)/2."""
        return self.re - self.im

    @property
    def m(self) -> float:
        """Coefficient of qbar = (1+j)/2."""
        return self.re + self.im

    @classmethod
    def from_null(cls, p: float, m: float) -> "DNum":
        return cls((p + m) / 2.0, (m - p) / 2.0)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return DNum(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return DNum(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return DNum(
            self.re * other.re + self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return DNum(-self.re, -self.im)

    def __truediv__(self, other):
        other = _coerce(other)
        if other.p == 0.0 or other.m == 0.0:
            which = []
            if other.p == 0.0:
                which.append("q")
            if other.m == 0.0:
                which.append("qbar")
            raise NonInvertibleError(
                f"divisor {format_dnum(other)} is not invertible: "
                f"{' and '.join(which)} component vanishes"
            )
        return DNum.from_null(self.p / other.p, self.m / other.m)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conj(self) -> "DNum":
        return DNum(self.re, -self.im)

    def modsq(self) -> float:
        """Square of the amplitude, re^2 - im^2.  May be negative."""
        return self.re * self.re - self.im * self.im

    def __abs__(self) -> float:
        return math.sqrt(abs(self.modsq()))

    def to_json(self):
        return [self.re, self.im]

    @classmethod
    def from_json(cls, obj) -> "DNum":
        return cls(float(obj[0]), float(obj[1]))

    def __repr__(self):
        return f"DNum({self.re!r}, {self.im!r})"


ZERO = DNum(0.0, 0.0)
ONE = DNum(1.0, 0.0)
J = DNum(0.0, 1.0)
Q = DNum(0.5, -0.5)
QBAR = DNum(0.5, 0.5)


def _coerce(x) -> DNum:
    if isinstance(x, DNum):
        return x
    return DNum(float(x), 0.0)


def classify(a: DNum, eps_cls: float = EPS_CLS) -> DClass:
    """Classify into null cone / positive cone / other invertible.

    The test is relative: a component counts as zero when it is below
    eps_cls * (1 + max component), which keeps the answer stable under
    rescaling of a.
    """
    if eps_cls < 0:
        raise ValueError("eps_cls must be nonnegative")
    p, m = a.p, a.m
    thr = eps_cls * (1.0 + max(abs(p), abs(m)))
    if min(abs(p), abs(m)) <= thr:
        return DClass.NULL
    if p > thr and m > thr:
        return DClass.POSITIVE
    return DClass.OTHER_INVERTIBLE


def nth_root_positive(a: DNum, n: int, eps_cls: float = EPS_CLS) -> DNum:
    """Principal nth root, defined only on the positive cone.

    Computed componentwise as real positive roots of (p, m); the result is
    the unique root lying in the positive cone.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if classify(a, eps_cls) is not DClass.POSITIVE:
        bad = []
        if a.p <= 0 or abs(a.p) <= eps_cls * (1 + abs(a.m)):
            bad.append(f"q component {a.p!r}")
        if a.m <= 0 or abs(a.m) <= eps_cls * (1 + abs(a.p)):
            bad.append(f"qbar component {a.m!r}")
        raise RootDomainError(
            f"{n}th root needs a positive-cone argument; "
            f"violated by {', '.join(bad) or format_dnum(a)}"
        )
    return DNum.from_null(a.p ** (1.0 / n), a.m ** (1.0 / n))


def exp_j(theta: float) -> DNum:
    """The unit-amplitude element cosh(theta) + j sinh(theta)."""
    return DNum(math.cosh(theta), math.sinh(theta))


# -- componentwise elementary functions ---------------------------------

_ENTIRE = {
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "exp": np.exp,
}


def elementary(name: str, a: DNum) -> DNum:
    """Apply an entire elementary function componentwise in the null basis."""
    fn = _ENTIRE[name]
    return DNum.from_null(float(fn(a.p)), float(fn(a.m)))


# -- textual form --------------------------------------------------------

_DNUM_RE = _re.compile(
    r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"(?:\s*([+-])\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*j)?\s*$"
)


def format_dnum(a: DNum) -> str:
    """Render as "a+bj" / "a-bj" with shortest-roundtrip decimals."""
    sign = "-" if a.im < 0 or (a.im == 0 and math.copysign(1, a.im) < 0) else "+"
    return f"{a.re:.17g}{sign}{abs(a.im):.17g}j"


def parse_dnum(text: str) -> DNum:
    m = _DNUM_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse double number from {text!r}")
    re_part = float(m.group(1))
    if m.group(2) is None:
        return DNum(re_part, 0.0)
    im_part = float(m.group(3))
    if m.group(2) == "-":
        im_part = -im_part
    return DNum(re_part, im_part)
