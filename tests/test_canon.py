"""Canonical coordinates: construction, verification, uniqueness."""

import numpy as np
import pytest

from dnsurf import canon
from dnsurf.canon import CanonicalChart, Map1D, canonize, isotropic_chart, relate_charts, verify_canonical
from dnsurf.dnum import DNum
from dnsurf.errors import ChartModelError, DegeneratePointError, OutOfDomainError


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
        off = chart.replace(sminus=m.replace(fwd=lambda x, _f=m.fwd: 1.001 * _f(x)))
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


def test_hermite_reproduces_cubic():
    """Values x^3 and slopes 3x^2 at the nodes pin every piece to x^3 itself."""
    xs = np.linspace(-1.3, 2.1, 9)
    interp = canon._hermite(xs, xs**3, 3.0 * xs**2)
    x = np.linspace(-1.5, 2.3, 77).reshape(7, 11)
    got = interp(x)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, x**3, rtol=0, atol=1e-13)
    for v in (-1.3, -0.41, 0.0, 1.7, 2.1):
        assert abs(float(interp(v)) - v**3) <= 1e-13
    assert np.isnan(float(interp(np.nan)))


def test_map_axes_accept_arrays(s5):
    """Array calls of fwd, inv and dfwd agree with scalar calls."""
    chart = canonize(s5)
    for m in (chart.sminus, chart.splus):
        x = np.linspace(m.lo, m.hi, 11)
        s = m.fwd(x)
        for f, arg in ((m.fwd, x), (m.inv, s), (m.dfwd, x)):
            got = f(arg)
            assert got.shape == arg.shape
            np.testing.assert_allclose(got, [f(float(v)) for v in arg], rtol=1e-14, atol=1e-15)
    lin = Map1D.linear(2.0, 1.0, 0.0, 1.0)
    np.testing.assert_array_equal(lin.dfwd(np.zeros((2, 3))), np.full((2, 3), 2.0))


def test_inverse_roundtrip(s2, s5, s6):
    """inv(*fwd(a, b)) gives back (a, b) per axis, on axes of different
    lengths, for a chart and its conjugate."""
    rng = np.random.default_rng(37)
    for S in (s2, s5, s6):
        chart = canonize(S)
        a = rng.uniform(S.domain.a0, S.domain.a1, 50)
        b = rng.uniform(S.domain.b0, S.domain.b1, 30)
        for c in (chart, chart.conjugated()):
            sa, sb = c.fwd(a, b)
            assert sa.shape == ((30,) if c.conjugate_output else (50,))
            back_a, back_b = c.inv(sa, sb)
            np.testing.assert_allclose(back_a, a, atol=1e-9)
            np.testing.assert_allclose(back_b, b, atol=1e-9)
        # the conjugated chart swaps the null slots of s
        for got, want in zip(chart.conjugated().fwd(a, b)[::-1], chart.fwd(a, b)):
            np.testing.assert_array_equal(got, want)
        assert chart.inv(*chart.fwd(-1.0, 1.0)) == pytest.approx((-1.0, 1.0), abs=1e-9)


def test_inverse_refuses_s_outside_the_range(s6):
    """Map1D.inv clamps to the domain; chart.inv names an out-of-range s
    instead, sa before sb, and in the conjugated chart sa is on the b map."""
    chart = canonize(s6)
    box = chart.s_box
    with pytest.raises(OutOfDomainError, match=r"sa=-6\.0 outside"):
        chart.inv(np.array([0.0, -6.0]), np.array([box.b1 + 1.0]))
    with pytest.raises(OutOfDomainError, match=r"sb=nan"):
        chart.inv(np.array([0.0]), np.array([0.0, np.nan]))
    with pytest.raises(OutOfDomainError, match=f"sa={box.b1 + 0.5!r} outside \\[{box.b0!r}"):
        chart.conjugated().inv(box.b1 + 0.5, box.a1 + 0.5)
    # within the 1e-12 slack the ends invert to the domain's ends
    a, b = chart.inv(box.a0 - 5e-13, box.b1 + 5e-13)
    assert (a, b) == pytest.approx((s6.domain.a0, s6.domain.b1), abs=1e-9)


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
    want = DNum.from_null(*c1.fwd(c2.base.p, c2.base.m))
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

    return RealFn1(parse("1+t^2")).f


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
    sa, sb = iso.fwd(-0.7, 1.0)
    # move along the q null direction of s
    a, b = iso.inv(np.array([sa + h, sa - h]), sb)
    t_a, t_b = (DNum.from_null(float(x), b) for x in a)
    d = s1.psi.eval_unchecked(t_a) - s1.psi.eval_unchecked(t_b)
    d = d.scale(DNum(1.0 / (2 * h)))
    sq = dot(d, d)
    assert abs(sq.modsq()) <= 1e-9
