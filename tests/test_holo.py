"""Holomorphic maps in factored null form."""

import math

import numpy as np
import pytest

from dnsurf.dnum import DNum
from dnsurf.errors import GridError, OutOfDomainError
from dnsurf.holo import Box, HoloCurve, HoloMap, RealFn1, cr_residual
from dnsurf.sexpr import parse

BOX = Box(-2.0, 2.0, -2.0, 2.0)


def test_eval_examples():
    """cos(jv) = cos v, sin(jv) = j sin v, identity."""
    v = 0.9
    f = HoloMap.from_expr(parse("cos(t)"), BOX)
    z = f.eval(DNum(0.0, v))
    np.testing.assert_allclose([z.re, z.im], [math.cos(v), 0.0], atol=1e-15)
    f = HoloMap.from_expr(parse("sin(t)"), BOX)
    z = f.eval(DNum(0.0, v))
    np.testing.assert_allclose([z.re, z.im], [0.0, math.sin(v)], atol=1e-15)
    f = HoloMap.from_expr(parse("t"), BOX)
    z = f.eval(DNum(0.3, -0.4))
    np.testing.assert_allclose([z.re, z.im], [0.3, -0.4], rtol=1e-15, atol=1e-16)


def test_out_of_domain_names_coordinate():
    f = HoloMap.from_expr(parse("t"), Box(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(OutOfDomainError, match="a="):
        f.eval(DNum(-1.0, 0.5))  # a = -1.5 below 0
    with pytest.raises(OutOfDomainError, match="b="):
        f.eval(DNum(0.7, 0.5))  # a = 0.2 inside, b = 1.2 above 1


def test_differentiate_symbolic():
    for text, dtext in (("sin(t)", "cos(t)"), ("t^2", "2*t"), ("cosh(t)", "sinh(t)")):
        f = HoloMap.from_expr(parse(text), BOX).differentiate()
        g = HoloMap.from_expr(parse(dtext), BOX)
        for x in np.linspace(-1.5, 1.5, 9):
            np.testing.assert_allclose(f.fminus.f(x), g.fminus.f(x), rtol=1e-12)


def test_derivatives_match_finite_differences():
    f = RealFn1(parse("sin(2*t)*exp(t/3)"))
    h = 1e-4
    for x in np.linspace(-1, 1, 11):
        fd = (f.f(x + h) - f.f(x - h)) / (2 * h)
        assert abs(f.df(x) - fd) <= 5e-8 * max(1, abs(fd))


def test_conjugation_law():
    """eval(conj f, t) = conj(eval(f, conj t)) exactly."""
    f = HoloMap.from_expr(parse("sin(t)+j*t^2"), BOX)
    g = f.conj()
    rng = np.random.default_rng(17)
    for _ in range(50):
        t = DNum(*rng.uniform(-1, 1, 2))
        assert g.eval(t) == f.eval(t.conj()).conj()


def test_holocurve_conj_swaps_box():
    box = Box(0.0, 1.0, 2.0, 3.0)
    c = HoloCurve.from_exprs([parse("t"), parse("t^2"), parse("0")], box)
    assert c.conj().domain == Box(2.0, 3.0, 0.0, 1.0)


def test_cr_residual_holomorphic():
    """t^2 sampled: residual ~0; constants: exactly 0."""
    u = np.linspace(0, 1, 64)
    v = np.linspace(0, 1, 64)
    U, V = np.meshgrid(u, v)
    g = U * U + V * V  # Re(t^2)
    h = 2 * U * V      # Im(t^2)
    assert cr_residual(g, h, u[1] - u[0], v[1] - v[0]) <= 1e-3
    z = np.full_like(g, 3.0)
    assert cr_residual(z, z, u[1] - u[0], v[1] - v[0]) == 0.0


def test_cr_residual_antiholomorphic():
    """f = conj(t): the h_u = g_v branch is violated by exactly 2."""
    u = np.linspace(0, 1, 64)
    v = np.linspace(0, 1, 64)
    U, V = np.meshgrid(u, v)
    res = cr_residual(U, -V, u[1] - u[0], v[1] - v[0])
    np.testing.assert_allclose(res, 2.0, rtol=1e-10)


def test_cr_residual_grid_too_small():
    with pytest.raises(GridError):
        cr_residual(np.zeros((2, 5)), np.zeros((2, 5)), 0.1, 0.1)


def test_holocurve_requires_shared_domain():
    with pytest.raises(GridError):
        HoloCurve((
            HoloMap.from_expr(parse("t"), Box(0, 1, 0, 1)),
            HoloMap.from_expr(parse("t"), Box(0, 2, 0, 1)),
            HoloMap.from_expr(parse("t"), Box(0, 1, 0, 1)),
        ))
