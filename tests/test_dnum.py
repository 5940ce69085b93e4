"""Double-number algebra: arithmetic, classification, roots, textual form."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dnsurf.dnum import (
    DClass,
    DNum,
    J,
    ONE,
    Q,
    QBAR,
    classify,
    elementary,
    exp_j,
    format_dnum,
    nth_root_positive,
    parse_dnum,
)
from dnsurf.errors import NonInvertibleError, RootDomainError

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def test_null_basis_roundtrip():
    """(p, m) -> (re, im) -> (p, m) is bit-stable for dyadic inputs."""
    a = DNum(0.375, -0.25)
    assert DNum.from_null(a.p, a.m) == a


def test_q_qbar_annihilate():
    """q * qbar = 0 and q + qbar = 1."""
    z = Q * QBAR
    assert z.re == 0.0 and z.im == 0.0
    assert Q + QBAR == ONE


def test_null_lines_multiply_to_zero():
    """(1+j)(1-j) = 0."""
    z = DNum(1, 1) * DNum(1, -1)
    assert z.re == 0.0 and z.im == 0.0


def test_product_example():
    """(2+j)(3+2j) = 8+7j via null components (1,3)*(1,5)."""
    z = DNum(2, 1) * DNum(3, 2)
    assert (z.re, z.im) == (8.0, 7.0)


def test_division_by_null_raises():
    """Dividing by a zero divisor names the vanished null component."""
    with pytest.raises(NonInvertibleError, match="qbar"):
        ONE / DNum(1, -1)
    with pytest.raises(NonInvertibleError, match="q component"):
        ONE / DNum(1, 1)


def test_division_inverts_multiplication():
    a, b = DNum(2, 1), DNum(3, 2)
    np.testing.assert_allclose([((a * b) / b).re, ((a * b) / b).im], [2, 1], atol=1e-14)


def test_conj_modsq_examples():
    """conj and modsq: 2+j -> (2-j, 3); j -> (-j, -1); null -> 0."""
    assert DNum(2, 1).conj() == DNum(2, -1)
    assert DNum(2, 1).modsq() == 3.0
    assert J.modsq() == -1.0
    assert DNum(1, 1).modsq() == 0.0


def test_classify_examples():
    assert classify(DNum(1, 1)) is DClass.NULL
    assert classify(DNum(2, 1)) is DClass.POSITIVE
    assert classify(DNum(-1, 0)) is DClass.OTHER_INVERTIBLE


def test_classify_scale_covariant():
    for lam in (1e-6, 1.0, 1e6):
        assert classify(DNum(2 * lam, lam)) is DClass.POSITIVE
        assert classify(DNum(lam, lam)) is DClass.NULL


def test_classify_closed_under_positive_multiplication():
    """D0 and D+ are multiplicatively closed."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        p, m = rng.uniform(0.1, 10, 2)
        pos = DNum.from_null(p, m)
        assert classify(pos * DNum(2, 1)) is DClass.POSITIVE
        assert classify(DNum(1, 1) * pos) is DClass.NULL


def test_nth_root_examples():
    assert nth_root_positive(ONE, 4) == ONE
    r = nth_root_positive(DNum(16, 0), 4)
    np.testing.assert_allclose([r.re, r.im], [2, 0], atol=1e-14)
    r = nth_root_positive(DNum(48.5, 32.5), 4)
    np.testing.assert_allclose([r.re, r.im], [2.5, 0.5], rtol=1e-14)
    back = r * r * r * r
    np.testing.assert_allclose([back.re, back.im], [48.5, 32.5], rtol=1e-10)


def test_nth_root_domain_error():
    with pytest.raises(RootDomainError, match="component"):
        nth_root_positive(DNum(-1, 0), 4)
    with pytest.raises(RootDomainError):
        nth_root_positive(DNum(1, 1), 2)  # boundary of D+ is an error


def test_exp_j():
    assert exp_j(0.0) == ONE
    z = exp_j(math.log(2))
    np.testing.assert_allclose([z.re, z.im], [1.25, 0.75], rtol=1e-15)
    a, b = exp_j(0.4), exp_j(-1.1)
    ab = a * b
    np.testing.assert_allclose([ab.re, ab.im], [exp_j(-0.7).re, exp_j(-0.7).im], rtol=1e-12)
    np.testing.assert_allclose(z.modsq(), 1.0, rtol=1e-15)


@given(finite, finite, finite, finite)
def test_modsq_multiplicative(ar, ai, br, bi):
    """|ab|^2 = |a|^2 |b|^2 to relative 1e-12."""
    a, b = DNum(ar, ai), DNum(br, bi)
    lhs = (a * b).modsq()
    rhs = a.modsq() * b.modsq()
    # relative to the magnitude of the products entering the cancellation
    scale = (ar * ar + ai * ai) * (br * br + bi * bi)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)


@given(finite, finite, finite, finite)
@example(998535.0, -998595.9921875, -998351.9921875, -998412.9921875)
def test_null_basis_mul_matches_uv_expansion(ar, ai, br, bi):
    """Componentwise product equals the (u, v)-form expansion."""
    a, b = DNum(ar, ai), DNum(br, bi)
    z = a * b
    zp, zm = a.p * b.p, a.m * b.m
    # the (re, im) products cancel in z.p and z.m, so the rounding error
    # scales with their size, not with the null components of the result
    scale = (abs(ar) + abs(ai)) * (abs(br) + abs(bi))
    assert abs(z.p - zp) <= 1e-15 * max(1.0, scale)
    assert abs(z.m - zm) <= 1e-15 * max(1.0, scale)


def test_elementary_componentwise():
    """sin over the algebra: sin(jv) = j sin v."""
    z = elementary("sin", DNum(0.0, 0.7))
    np.testing.assert_allclose([z.re, z.im], [0.0, math.sin(0.7)], atol=1e-15)


def test_format_parse_roundtrip():
    for a in (DNum(1.5, -2.25), DNum(-0.1, 0.0), DNum(3e-7, 1e8)):
        assert parse_dnum(format_dnum(a)) == a


def test_json_roundtrip():
    a = DNum(0.1, -2.3)
    assert DNum.from_json(a.to_json()) == a
