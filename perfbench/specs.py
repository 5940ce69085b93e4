"""Benchmark inputs: base surfaces with closed forms, and seeded variants.

Every base surface is j-free except the plane s3, so a component is one
real function g on both null axes.  A variant applies, in this order, the
associated family e^{j theta} (null axes scaled by e^{-theta}, e^{theta}),
a homothety k, one Minkowski motion (boost, rotation or translation) and a
sub-box of the base domain.  Its null component functions are therefore

    f_i^-(x) = b_i + sum_k A_ik k e^{-theta} g_k(x)
    f_i^+(x) = b_i + sum_k A_ik k e^{+theta} g_k(x)

and the oracles evaluate these with numpy from hand-written derivatives,
never through dnsurf.  The program only sees the spec text written here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Base:
    name: str
    psi: tuple[str, ...]
    domain: tuple[float, float, float, float]  # a0, a1, b0, b1
    g: tuple  # (g, g', g'') -> each maps x to an (n, len(x)) array
    quarter_root: object  # (Phi'^2 null component)^{1/4}
    quarter_primitive: object  # F with F' = quarter_root
    quarter_inverse: object  # F^{-1}


def _s1(x):
    return np.array([x, np.sin(x), -np.cos(x)])


def _s1d(x):
    return np.array([np.ones_like(x), np.cos(x), np.sin(x)])


def _s1dd(x):
    return np.array([np.zeros_like(x), -np.sin(x), np.cos(x)])


def _s2(x):
    return np.array([np.sinh(x), np.cosh(x), np.sin(x), -np.cos(x)])


def _s2d(x):
    return np.array([np.cosh(x), np.sinh(x), np.cos(x), np.sin(x)])


def _s2dd(x):
    return np.array([np.sinh(x), np.cosh(x), -np.sin(x), np.cos(x)])


def _s5(x):
    e = np.exp(x)
    return np.array([e, e * (np.cos(x) + np.sin(x)) / 2, e * (np.sin(x) - np.cos(x)) / 2])


def _s5d(x):
    e = np.exp(x)
    return np.array([e, e * np.cos(x), e * np.sin(x)])


def _s5dd(x):
    e = np.exp(x)
    return np.array([e, e * (np.cos(x) - np.sin(x)), e * (np.sin(x) + np.cos(x))])


_R2 = 2.0 ** 0.25

BASES = {
    # Phi'^2 = 1: the chart is the identity up to the variant's scale.
    "s1": Base("s1", ("t", "sin(t)", "-cos(t)"), (-2.0, 0.0, 0.4, 2.0),
               (_s1, _s1d, _s1dd), np.ones_like, lambda x: x, lambda s: s),
    # Phi'^2 = 2: slope 2^{1/4}.
    "s2": Base("s2", ("sinh(t)", "cosh(t)", "sin(t)", "-cos(t)"), (-1.0, 0.0, 0.4, 2.0),
               (_s2, _s2d, _s2dd), lambda x: np.full_like(x, _R2),
               lambda x: _R2 * x, lambda s: s / _R2),
    # P = e^{2a}, Q = e^{2b}: the chart is 2 e^{x/2} on each axis.
    "s5": Base("s5", ("exp(t)", "exp(t)*(cos(t)+sin(t))/2", "exp(t)*(sin(t)-cos(t))/2"),
               (-2.0, 0.0, 0.4, 2.0), (_s5, _s5d, _s5dd), lambda x: np.exp(x / 2.0),
               lambda x: 2.0 * np.exp(x / 2.0), lambda s: 2.0 * np.log(s / 2.0)),
}

#: The degenerate plane (Phi' = 0): canonize must exit 4 on it.
PLANE = {"name": "s3-plane", "n": 3, "psi": ["5*t", "4*t", "3*j*t"],
         "domain": {"a": [-1.0, 1.0], "b": [-1.0, 1.0]}}

#: Space-like, isothermal: ||Phi||^2 = 50 > 0, so validation exits 2.
SPACELIKE = {"name": "spacelike", "n": 3, "psi": ["5*j*t", "4*t", "3*t"],
             "domain": {"a": [-1.0, 1.0], "b": [-1.0, 1.0]}}

#: Bad expression texts: each must exit 3 (parse error).
BAD_EXPRS = ("sin(t", "log(t)", "t^1.5", "2**t", "t+*3")


def _sign(n):
    s = np.ones(n)
    s[0] = -1.0
    return s


@dataclass(frozen=True)
class Variant:
    """A transformed base surface on a sub-box, with its closed forms."""

    name: str
    base: Base
    k: float
    theta: float
    A: np.ndarray
    b: np.ndarray
    box: tuple[float, float, float, float]

    @property
    def n(self) -> int:
        return len(self.base.psi)

    @property
    def scales(self) -> tuple[float, float]:
        """Factor on g along the minus and the plus null axis."""
        return self.k * math.exp(-self.theta), self.k * math.exp(self.theta)

    def null(self, x, axis: int, order: int = 0) -> np.ndarray:
        """d^order f^{-/+}(x), shape (n, len(x)); axis 0 = minus, 1 = plus."""
        x = np.asarray(x, dtype=float)
        val = self.scales[axis] * (self.A @ self.base.g[order](x))
        return val + self.b[:, None] if order == 0 else val

    def x(self, a, b) -> np.ndarray:
        """Re Psi at null points, shape (n, len(a))."""
        return 0.5 * (self.null(a, 0) + self.null(b, 1))

    def fields(self, a, b) -> dict:
        """E, K (bivector route, independent numpy), P, Q at null points."""
        s = _sign(self.n)[:, None]
        pm, pp = self.null(a, 0, 1), self.null(b, 1, 1)
        qm, qp = self.null(a, 0, 2), self.null(b, 1, 2)
        nphi = np.sum(s * pm * pp, axis=0)
        nphip = np.sum(s * qm * qp, axis=0)
        cross = np.sum(s * pp * qm, axis=0) * np.sum(s * pm * qp, axis=0)
        return {
            "E": 0.5 * nphi,
            "K": -4.0 * (nphi * nphip - cross) / nphi**3,
            "P": np.sum(s * qm * qm, axis=0),
            "Q": np.sum(s * qp * qp, axis=0),
        }

    def chart_slopes(self) -> tuple[float, float]:
        """(P^{1/4}, Q^{1/4}) divided by the base surface's: sqrt(k) e^{-+theta/2}."""
        return math.sqrt(self.scales[0]), math.sqrt(self.scales[1])

    def chart(self, x, axis: int, x0: float):
        """Canonical coordinate of null coordinate x, anchored at x0."""
        F = self.base.quarter_primitive
        return self.chart_slopes()[axis] * (F(np.asarray(x, dtype=float)) - F(x0))

    def chart_inv(self, s, axis: int, x0: float):
        F, Finv = self.base.quarter_primitive, self.base.quarter_inverse
        return Finv(np.asarray(s, dtype=float) / self.chart_slopes()[axis] + F(x0))

    def spec(self) -> dict:
        a0, a1, b0, b1 = self.box
        return {"name": self.name, "n": self.n, "psi": psi_texts(self),
                "domain": {"a": [a0, a1], "b": [b0, b1]}}


def _num(v: float) -> str:
    return f"({float(v)!r})"


def psi_texts(v: Variant) -> list[str]:
    """Expression strings of b + A k e^{j theta} Psi in the dnsurf grammar."""
    unit = f"({math.cosh(v.theta)!r}+{math.sinh(v.theta)!r}*j)"
    out = []
    for i in range(v.n):
        terms = [f"{_num(v.k * v.A[i, m])}*{unit}*({v.base.psi[m]})"
                 for m in range(v.n) if v.A[i, m] != 0.0]
        if v.b[i] != 0.0:
            terms.append(_num(v.b[i]))
        out.append("+".join(terms))
    return out


def boost(n: int, beta: float) -> np.ndarray:
    A = np.eye(n)
    A[0, 0] = A[1, 1] = math.cosh(beta)
    A[0, 1] = A[1, 0] = math.sinh(beta)
    return A


def rotation(n: int, phi: float, i: int, k: int) -> np.ndarray:
    A = np.eye(n)
    A[i, i] = A[k, k] = math.cos(phi)
    A[i, k], A[k, i] = -math.sin(phi), math.sin(phi)
    return A


MOTIONS = ("boost", "rotation", "translation")


def random_motion(rng: np.random.Generator, n: int,
                  kind: str | None = None) -> tuple[str, np.ndarray, np.ndarray]:
    kind = kind or MOTIONS[int(rng.integers(3))]
    A, b = np.eye(n), np.zeros(n)
    if kind == "boost":
        A = boost(n, float(rng.uniform(-0.5, 0.5)))
    elif kind == "rotation":
        i, k = sorted(rng.choice(np.arange(1, n), size=2, replace=False))
        A = rotation(n, float(rng.uniform(0.0, 2.0 * math.pi)), int(i), int(k))
    else:
        b = rng.uniform(-1.0, 1.0, n)
    return kind, A, b


def make_variant(rng: np.random.Generator, base: Base, tag: str, motion: str) -> Variant:
    a0, a1, b0, b1 = base.domain
    la, lb = a1 - a0, b1 - b0
    # trim up to 15% off each end of each null axis
    ca, cb = rng.uniform(0.0, 0.15, 2)
    da, db = rng.uniform(0.0, 0.15, 2)
    box = (a0 + ca * la, a1 - da * la, b0 + cb * lb, b1 - db * lb)
    kind, A, b = random_motion(rng, len(base.psi), motion)
    return Variant(
        name=f"{base.name}-{tag}-{kind}",
        base=base,
        k=float(math.exp(rng.uniform(math.log(0.5), math.log(2.0)))),
        theta=float(rng.uniform(-0.5, 0.5)),
        A=A, b=b, box=tuple(float(x) for x in box),
    )


#: The motion each base surface gets.  Only the parameters are seeded:
#: mixing motions lengthen the expressions and so the cost per point, and a
#: fixed kind per base keeps each variant's cost alike across seeds.
MOTION_OF = {"s1": "boost", "s2": "rotation", "s5": "translation"}


def variant_pool(rng: np.random.Generator) -> list[Variant]:
    """Nine variants: s1, s2, s5 in turn, three of each."""
    return [make_variant(rng, BASES[name], f"v{i}", MOTION_OF[name])
            for i in range(3) for name in ("s1", "s2", "s5")]


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return path
