"""Expression parsing, differentiation, serialization, and lowering."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import pointwise_ref as ref
from dnsurf import sexpr
from dnsurf.dnum import DNum
from dnsurf.errors import NonInvertibleError, ParseError
from dnsurf.holo import Box, HoloMap
from dnsurf.sexpr import (
    App, Bin, Jay, Num, Pi, Pow, Var, diff_t, eval_expr, parse, serialize, subst_j,
)


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


def test_depth_bound_admits_its_own_depth():
    """Each shape nested exactly sexpr.MAX_DEPTH deep parses and one level
    more is a ParseError; the product, whose second derivative is the
    deepest (about three times the bound), serializes and evaluates."""
    d = sexpr.MAX_DEPTH
    shapes = (
        lambda k: "sin(" * k + "t" + ")" * k,
        lambda k: "+".join(["t"] * (k + 1)),
        lambda k: "*".join(["t"] * (k + 1)),
        lambda k: "-" * k + "t",
        lambda k: "(" * k + "t" + ")" * k,
    )
    for shape in shapes:
        parse(shape(d))
        with pytest.raises(ParseError, match="nested deeper than"):
            parse(shape(d + 1))
    d2 = diff_t(diff_t(subst_j(parse(shapes[2](d)), 1.0)))
    assert serialize(d2)
    assert eval_expr(d2, 1.0) == (d + 1) * d


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
    assert eval_expr(subst_j(diff_t(parse("5*t + 3*j")), 1.0), 2.0) == 5.0


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
                eval_expr(subst_j(again, -1.0), x), eval_expr(subst_j(e, -1.0), x), rtol=1e-15
            )


def test_lower_j_constants():
    """j lowers to -1 on the q axis and +1 on the qbar axis."""
    f = HoloMap.from_expr(parse("j"), Box(-1, 1, -1, 1))
    assert f.fminus.f(0.3) == -1.0
    assert f.fplus.f(0.3) == 1.0


def test_lower_matches_dnum_eval():
    """The lowered null-axis functions at t agree with direct evaluation of
    the expression over the algebra (the reference route)."""
    rng = np.random.default_rng(11)
    box = Box(-2, 2, -2, 2)
    texts = ["t^3-2*t", "sin(t)*cos(t)", "exp(t/4)+j*sinh(t)", "(1+j)*t^2", "cosh(t)-j"]
    for text in texts:
        e = parse(text)
        f = HoloMap.from_expr(e, box)
        for _ in range(200):
            t = DNum(*rng.uniform(-1, 1, 2))
            got = ref.map_at(f, t)
            want = ref.eval_dnum(e, t)
            scale = max(1.0, abs(want.re), abs(want.im))
            assert abs(got.re - want.re) <= 1e-12 * scale
            assert abs(got.im - want.im) <= 1e-12 * scale


def test_reference_evaluates_a_power_base_once():
    """Nested powers cost time linear in their depth, not 2^depth."""
    e = parse("(" * 40 + "t" + ")^1" * 40)
    assert ref.eval_dnum(e, DNum(0.375, -0.25)) == DNum(0.375, -0.25)


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
    z = ref.map_at(f, DNum(0.0, 0.7))
    np.testing.assert_allclose([z.re, z.im], [0.0, math.sin(0.7)], atol=1e-15)


# -- properties over generated expressions ---------------------------------

def _not_literal_zero(e):
    return sexpr._num(e) != 0.0


def _grow(sub):
    """One more level of an expression, through the folding constructors
    that build every derived expression and the raw nodes that parse builds."""
    return st.one_of(
        st.builds(sexpr.add, sub, sub),
        st.builds(sexpr.sub, sub, sub),
        st.builds(sexpr.mul, sub, sub),
        st.builds(sexpr.div, sub, sub.filter(_not_literal_zero)),
        st.builds(sexpr.neg, sub),
        st.builds(sexpr.powi, sub, st.integers(0, 3)),
        st.builds(Bin, st.sampled_from("+-*"), sub, sub),
        st.builds(Bin, st.just("/"), sub, sub.filter(_not_literal_zero)),
        st.builds(App, st.sampled_from(sexpr.FUNCTIONS), sub),
    )


#: Literals are small integers and halves, so that folding them is exact.
EXPRS = st.recursive(
    st.one_of(
        st.integers(-3, 3).map(lambda k: Num(float(k))),
        st.sampled_from([0.5, -2.5]).map(Num),
        st.sampled_from([Pi(), Var(), Jay()]),
    ),
    _grow,
    max_leaves=10,
)

_X = np.array([-0.7, 0.3, 1.1])


def _lowered(e, jval):
    """The values at _X of e lowered onto the null axis j = jval, or None
    when lowering refuses a divisor that vanishes there."""
    try:
        f = subst_j(e, jval)
    except NonInvertibleError:
        return None
    with np.errstate(all="ignore"):
        return np.broadcast_to(np.asarray(eval_expr(f, _X), dtype=float), _X.shape)


@settings(max_examples=300, deadline=None)
@given(EXPRS)
def test_serialize_round_trips_through_parse(e):
    """parse(serialize(e)) has the value of e, bit for bit, on both null
    axes, and is itself a fixed point of parse(serialize(.)).  A negative
    literal comes back as the negation of a positive one."""
    again = parse(serialize(e))
    assert parse(serialize(again)) == again
    for jval in (-1.0, 1.0):
        np.testing.assert_array_equal(_lowered(again, jval), _lowered(e, jval))


@settings(max_examples=300, deadline=None)
@given(EXPRS, st.sampled_from([-1.0, 1.0]))
def test_diff_commutes_with_lowering(e, jval):
    """d/dt of e lowered onto a null axis (j = -1 or +1) equals the lowered
    d/dt of e, wherever both are finite."""
    assume(_lowered(e, jval) is not None)
    lowered_first = _lowered(diff_t(subst_j(e, jval)), jval)
    diff_first = _lowered(diff_t(e), jval)
    both = np.isfinite(lowered_first) & np.isfinite(diff_first)
    np.testing.assert_allclose(lowered_first[both], diff_first[both], rtol=1e-9, atol=1e-9)


def test_lowering_refuses_a_divisor_that_vanishes_on_an_axis():
    """1 + j is a zero divisor: it lowers to 0 on the q axis."""
    e = parse("t + 1/(1+j)")
    assert subst_j(e, 1.0) == Bin("+", Var(), Num(0.5))
    with pytest.raises(NonInvertibleError, match=r"divisor 1\+j is 0 where j = -1"):
        subst_j(e, -1.0)
