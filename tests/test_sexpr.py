"""Expression parsing, differentiation, serialization, and lowering."""

import math

import numpy as np
import pytest

from dnsurf.dnum import DNum
from dnsurf.errors import ParseError
from dnsurf.holo import Box, HoloMap
from dnsurf.sexpr import App, Bin, Jay, Num, Pow, Var, diff_t, eval_expr, parse, serialize


def test_parse_examples():
    assert parse("sin(t)") == App("sin", Var())
    assert parse("t^2 + 3*j") == Bin("+", Pow(Var(), 2), Bin("*", Num(3.0), Jay()))


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse("cos(t")
    assert exc.value.offset in (0, 5)  # the unbalanced "(" or the EOF
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("tan(t)")
    with pytest.raises(ParseError, match="exponent"):
        parse("t^2.5")
    with pytest.raises(ParseError, match="literal 0"):
        parse("t/0")
    with pytest.raises(ParseError, match="unbalanced"):
        parse("(t+1")


def test_precedence():
    """^ binds tighter than unary minus: -t^2 = -(t^2); * tighter than +."""
    assert eval_expr(parse("-t^2"), 3.0) == -9.0
    assert eval_expr(parse("2+3*4"), 0.0) == 14.0
    assert eval_expr(parse("2*3^2"), 0.0) == 18.0
    assert eval_expr(parse("1-2-3"), 0.0) == -4.0  # left associative


def test_pi_literal():
    np.testing.assert_allclose(eval_expr(parse("cos(pi)"), 0.0), -1.0, rtol=1e-15)


def test_diff_examples():
    assert serialize(diff_t(parse("sin(t)"))) == "cos(t)"
    assert serialize(diff_t(parse("t^3"))) == "3*t^2"
    assert eval_expr(diff_t(parse("5*t + 3*j")), 2.0, jval=1.0) == 5.0


def test_diff_quotient_and_chain():
    e = parse("sin(t^2)/cosh(t)")
    d = diff_t(e)
    x = 0.7
    h = 1e-6
    fd = (eval_expr(e, x + h) - eval_expr(e, x - h)) / (2 * h)
    np.testing.assert_allclose(eval_expr(d, x), fd, rtol=1e-8)


def test_serialize_parse_roundtrip():
    for text in ("t^2+3*j", "sin(t)*cosh(t)-exp(-t)", "-(t+1)^4/2", "pi*t"):
        e = parse(text)
        again = parse(serialize(e))
        for x in (0.3, -1.2):
            np.testing.assert_allclose(
                eval_expr(again, x, jval=-1.0), eval_expr(e, x, jval=-1.0), rtol=1e-15
            )


def test_lower_j_constants():
    """j lowers to -1 on the q axis and +1 on the qbar axis."""
    f = HoloMap.from_expr(parse("j"), Box(-1, 1, -1, 1))
    assert f.fminus.f(0.3) == -1.0
    assert f.fplus.f(0.3) == 1.0


def test_lower_matches_dnum_eval():
    """eval(lower(e), t) agrees with direct DNum AST evaluation."""
    rng = np.random.default_rng(11)
    box = Box(-2, 2, -2, 2)
    texts = ["t^3-2*t", "sin(t)*cos(t)", "exp(t/4)+j*sinh(t)", "(1+j)*t^2", "cosh(t)-j"]
    for text in texts:
        e = parse(text)
        f = HoloMap.from_expr(e, box)
        for _ in range(200):
            t = DNum(*rng.uniform(-1, 1, 2))
            got = f.eval(t)
            want = eval_expr(e, t)
            scale = max(1.0, abs(want.re), abs(want.im))
            assert abs(got.re - want.re) <= 1e-12 * scale
            assert abs(got.im - want.im) <= 1e-12 * scale


def test_diff_commutes_with_lower():
    """lower(diff e) = differentiate(lower e) pointwise."""
    box = Box(-2, 2, -2, 2)
    for text in ("t^4", "sin(t)*exp(t)", "j*cosh(2*t)"):
        e = parse(text)
        f1 = HoloMap.from_expr(diff_t(e), box)
        f2 = HoloMap.from_expr(e, box).differentiate()
        for x in np.linspace(-1.5, 1.5, 7):
            np.testing.assert_allclose(f1.fminus.f(x), f2.fminus.f(x), rtol=1e-12)
            np.testing.assert_allclose(f1.fplus.f(x), f2.fplus.f(x), rtol=1e-12)


def test_sin_at_jv():
    """sin(jv) = j sin v through lowering."""
    f = HoloMap.from_expr(parse("sin(t)"), Box(-2, 2, -2, 2))
    z = f.eval(DNum(0.0, 0.7))
    np.testing.assert_allclose([z.re, z.im], [0.0, math.sin(0.7)], atol=1e-15)
