"""Canonical coordinates: construction, verification, uniqueness."""

from dataclasses import replace

import numpy as np
import pytest

from dnsurf import canon
from dnsurf.canon import CanonicalChart, Map1D, canonize, isotropic_chart, relate_charts, verify_canonical
from dnsurf.dnum import DNum
from dnsurf.errors import ChartModelError, DegeneratePointError


def test_canonize_s1_identity(s1):
    """Phi'^2 = 1 on S1, so the chart is a shifted identity."""
    base = DNum.from_null(-1.0, 1.2)
    chart = canonize(s1, base)
    for x in np.linspace(s1.domain.a0, s1.domain.a1, 9):
        np.testing.assert_allclose(chart.sminus.fwd(x), x - base.p, atol=1e-10)
    for x in np.linspace(s1.domain.b0, s1.domain.b1, 9):
        np.testing.assert_allclose(chart.splus.fwd(x), x - base.m, atol=1e-10)
    assert verify_canonical(s1, chart) <= 1e-12


def test_canonize_s2_constant_factor(s2):
    """Phi'^2 = 2 on S2, so s = 2^{1/4} (t - base)."""
    chart = canonize(s2)
    r = 2.0 ** 0.25
    for x in np.linspace(s2.domain.a0, s2.domain.a1, 9):
        np.testing.assert_allclose(chart.sminus.fwd(x), r * (x - chart.base.p), atol=1e-8)
    assert verify_canonical(s2, chart) <= 1e-8


def test_canonize_rejects_degenerate(s3, s4):
    with pytest.raises(DegeneratePointError, match="positive cone"):
        canonize(s3)
    with pytest.raises(DegeneratePointError, match="qbar component"):
        canonize(s4)


def test_verify_detects_wrong_chart(s1):
    """s = 2t on S1 gives |1/16 - 1| = 0.9375."""
    box = s1.domain
    wrong = CanonicalChart(
        sminus=Map1D.linear(2.0, 0.0, box.a0, box.a1),
        splus=Map1D.linear(2.0, 0.0, box.b0, box.b1),
        base=DNum(0.0, 0.0),
    )
    np.testing.assert_allclose(verify_canonical(s1, wrong), 0.9375, rtol=1e-12)


def test_verify_detects_map_off_its_derivative(s2, s5):
    """fwd scaled by 1.001 while dfwd stays the integrand: a 1e-3 increment defect."""
    for S in (s2, s5):
        chart = canonize(S)
        assert verify_canonical(S, chart) <= 1e-8
        m = chart.sminus
        off = replace(chart, sminus=replace(m, fwd=lambda x, _f=m.fwd: 1.001 * _f(x)))
        assert verify_canonical(S, off) >= 1e-4


def test_s5_chart_closed_form(s5):
    """P = e^{2a}, so s = 2 e^{a/2} - 2 e^{a0/2} from the base a0, per axis."""
    base = DNum.from_null(-1.0, 1.2)
    chart = canonize(s5, base)
    for m, x0, (lo, hi) in ((chart.sminus, base.p, (-2.0, 0.0)), (chart.splus, base.m, (0.4, 2.0))):
        x = np.linspace(lo, hi, 33)
        want = 2.0 * np.exp(x / 2.0) - 2.0 * np.exp(x0 / 2.0)
        np.testing.assert_allclose(m.fwd(x), want, atol=1e-10)
        np.testing.assert_allclose(m.inv(want), x, atol=1e-10)


def test_map_axes_accept_arrays(s5):
    """Array calls of fwd, inv, dfwd and d2fwd agree with scalar calls."""
    chart = canonize(s5)
    for m in (chart.sminus, chart.splus):
        x = np.linspace(m.lo, m.hi, 11)
        s = m.fwd(x)
        for f, arg in ((m.fwd, x), (m.inv, s), (m.dfwd, x), (m.d2fwd, x)):
            got = f(arg)
            assert got.shape == arg.shape
            np.testing.assert_allclose(got, [f(float(v)) for v in arg], rtol=1e-14, atol=1e-15)
    lin = Map1D.linear(2.0, 1.0, 0.0, 1.0)
    np.testing.assert_array_equal(lin.dfwd(np.zeros((2, 3))), np.full((2, 3), 2.0))
    assert lin.d2fwd(0.5) == 0.0


def test_inverse_roundtrip(s2):
    chart = canonize(s2)
    rng = np.random.default_rng(37)
    for _ in range(50):
        t = DNum.from_null(
            rng.uniform(s2.domain.a0, s2.domain.a1),
            rng.uniform(s2.domain.b0, s2.domain.b1),
        )
        back = chart.inv(chart.fwd(t))
        np.testing.assert_allclose([back.p, back.m], [t.p, t.m], atol=1e-9)


def test_relate_charts_identity_and_shift(s2):
    c1 = canonize(s2)
    rel = relate_charts(c1, c1)
    assert rel.sign == 1 and not rel.conjugated
    np.testing.assert_allclose([rel.c.re, rel.c.im], [0, 0], atol=1e-12)

    c2 = canonize(s2, base=DNum.from_null(-0.8, 0.6))
    rel = relate_charts(c1, c2)
    assert rel.sign == 1 and not rel.conjugated
    assert rel.residual <= 1e-7
    # c equals the s-difference of the two base points under c1
    want = c1.fwd(c2.base)
    np.testing.assert_allclose([rel.c.re, rel.c.im], [want.re, want.im], atol=1e-8)


def test_relate_charts_detects_conjugation(s2):
    c1 = canonize(s2)
    rel = relate_charts(c1, c1.conjugated())
    assert rel.conjugated


def test_relate_charts_rejects_non_affine(s2):
    c1 = canonize(s2)
    box = s2.domain
    bogus = CanonicalChart(
        sminus=Map1D.from_quadrature(
            _quadratic_fn(), box.a0, box.a1, 0.5 * (box.a0 + box.a1)
        ),
        splus=c1.splus,
        base=c1.base,
    )
    with pytest.raises(ChartModelError):
        relate_charts(c1, bogus)


def _quadratic_fn():
    from dnsurf.holo import RealFn1
    from dnsurf.sexpr import parse

    return RealFn1.from_expr(parse("1+t^2"))


def test_derivative_stays_positive(s2):
    chart = canonize(s2)
    assert chart.sminus.deriv_min > 0
    assert chart.splus.deriv_min > 0


def test_isotropic_chart(s1):
    """Null axes scale by 1/sqrt 2; applying twice scales by 1/2."""
    chart = canonize(s1, DNum.from_null(-1.0, 1.2))
    iso = isotropic_chart(chart)
    x = -0.7
    np.testing.assert_allclose(iso.sminus.fwd(x), chart.sminus.fwd(x) / np.sqrt(2), rtol=1e-12)
    iso2 = isotropic_chart(iso)
    np.testing.assert_allclose(iso2.sminus.fwd(x), chart.sminus.fwd(x) / 2, rtol=1e-12)


def test_isotropic_lines_have_null_tangents(s1):
    """d Psi / ds along one null axis has vanishing scalar square."""
    from dnsurf.mink import dot

    chart = canonize(s1, DNum.from_null(-1.0, 1.2))
    iso = isotropic_chart(chart)
    h = 1e-6
    s0 = iso.fwd(DNum.from_null(-0.7, 1.0))
    # move along the q null direction of s
    t_a = iso.inv(DNum.from_null(s0.p + h, s0.m))
    t_b = iso.inv(DNum.from_null(s0.p - h, s0.m))
    d = s1.psi.eval_unchecked(t_a) - s1.psi.eval_unchecked(t_b)
    d = d.scale(DNum(1.0 / (2 * h)))
    sq = dot(d, d)
    assert abs(sq.modsq()) <= 1e-9
