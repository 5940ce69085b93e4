"""Minkowski vectors over the double numbers."""

import math

import numpy as np
import pytest

from dnsurf.dnum import DNum
from dnsurf.errors import DimensionError
from dnsurf.mink import DVec, dot, normsq, wedge_normsq


def _vec(*pairs):
    return DVec(tuple(DNum(r, i) for r, i in pairs))


def _circle_pair(v):
    """Phi = (1, cos t, sin t) and Phi' = (0, -sin t, cos t) at t = jv."""
    cos_jv = DNum(math.cos(v), 0.0)          # cos is even
    sin_jv = DNum(0.0, math.sin(v))          # sin is odd
    phi = _vec((1, 0), (cos_jv.re, cos_jv.im), (sin_jv.re, sin_jv.im))
    phip = _vec((0, 0), (-sin_jv.re, -sin_jv.im), (cos_jv.re, cos_jv.im))
    return phi, phip


def test_dot_examples():
    """Isotropic, null-cancellation, and time-like unit examples."""
    a = _vec((1, 0), (1, 0), (0, 0))
    assert dot(a, a) == DNum(0.0, 0.0)
    b = _vec((5, 0), (4, 0), (0, 3))
    z = dot(b, b)
    np.testing.assert_allclose([z.re, z.im], [0, 0], atol=1e-14)
    e1 = _vec((1, 0), (0, 0), (0, 0))
    assert dot(e1, e1) == DNum(-1.0, 0.0)


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionError):
        dot(DVec.from_reals([0.0] * 3), DVec.from_reals([0.0] * 4))


def test_normsq_examples():
    assert normsq(_vec((5, 0), (4, 0), (0, 3))) == -18.0
    phi, _ = _circle_pair(math.pi / 2)
    np.testing.assert_allclose(normsq(phi), -2.0, atol=1e-15)
    assert normsq(DVec.from_reals([0.0] * 5)) == 0.0


def test_normsq_equals_dot_for_real_vectors():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = DVec.from_reals(rng.standard_normal(4))
        assert normsq(a) == dot(a, a).re


def test_dot_bilinear_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = DVec(tuple(DNum(*xy) for xy in rng.standard_normal((4, 2))))
        b = DVec(tuple(DNum(*xy) for xy in rng.standard_normal((4, 2))))
        c = DVec(tuple(DNum(*xy) for xy in rng.standard_normal((4, 2))))
        lam = DNum(*rng.standard_normal(2))
        sym = dot(a, b) - dot(b, a)
        assert max(abs(sym.re), abs(sym.im)) <= 1e-12
        lin = dot(a.scale(lam) + b, c) - (dot(a, c) * lam + dot(b, c))
        assert max(abs(lin.re), abs(lin.im)) <= 1e-12


def test_wedge_examples():
    """wedge(a, a) = 0 for real a; 2 sin^2 v for the circle pair."""
    a = DVec.from_reals([1.0, 2.0, 3.0])
    np.testing.assert_allclose(wedge_normsq(a, a), 0.0, atol=1e-12)
    phi, phip = _circle_pair(math.pi / 2)
    np.testing.assert_allclose(wedge_normsq(phi, phip), 2.0, atol=1e-14)
    phi, phip = _circle_pair(math.pi / 4)
    np.testing.assert_allclose(wedge_normsq(phi, phip), 1.0, atol=1e-14)


def test_dimension_bounds():
    with pytest.raises(DimensionError):
        DVec((DNum(1.0), DNum(2.0)))


def test_json_roundtrip():
    a = _vec((1.5, -0.5), (0, 2), (3, 0))
    assert DVec.from_json(a.to_json()) == a
