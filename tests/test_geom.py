"""Surface kernel: validation, curvatures, classification, hyperbola."""

import math

import numpy as np
import pytest

from dnsurf import canon, geom
from dnsurf.dnum import DNum
from dnsurf.errors import DegeneratePointError, OutOfDomainError, SurfaceConditionError
from dnsurf.holo import Box, HoloCurve
from dnsurf.mink import dot
from dnsurf.sexpr import parse

#: Oracle value: S2 curvature -8 sinh(2v) sin(2v) / (cos 2v - cosh 2v)^3 at
#: v = 0.5, derived independently by symbolic null-component expansion.
S2_K_AT_HALF = 7.845606765347113


def s1_closed_K(v):
    return 1.0 / math.sin(v) ** 4


def s2_closed_K(v):
    return -8.0 * math.sinh(2 * v) * math.sin(2 * v) / (math.cos(2 * v) - math.cosh(2 * v)) ** 3


def test_make_surface_accepts_gallery(s1, s3):
    assert s1.validation.max_isothermal <= 1e-9
    assert s1.validation.max_normsq < 0.0
    np.testing.assert_allclose(s3.validation.max_normsq, -18.0, rtol=1e-14)


def test_make_surface_rejects_isotropic_direction():
    """Psi = (t, t, 0) has ||Psi'||^2 = 0: not time-like."""
    psi = HoloCurve.from_exprs(
        [parse("t"), parse("t"), parse("0")], Box(-1, 1, -1, 1)
    )
    with pytest.raises(SurfaceConditionError, match="time-like"):
        geom.make_surface(psi)


def test_make_surface_rejects_non_isothermal():
    psi = HoloCurve.from_exprs(
        [parse("2*t"), parse("t"), parse("t")], Box(-1, 1, -1, 1)
    )
    with pytest.raises(SurfaceConditionError, match="isothermal"):
        geom.make_surface(psi)


def test_point_data_s1_at_half_pi(s1):
    """At t = j pi/2: E = -1, Phi = (1, 0, j), Phi' = (0, -j, 0), K = 1."""
    t = DNum(0.0, math.pi / 2)
    pd = geom.point_data(s1, t)
    np.testing.assert_allclose(pd.E, -1.0, atol=1e-15)
    np.testing.assert_allclose(pd.K, 1.0, rtol=1e-12)
    np.testing.assert_allclose(
        [[c.re, c.im] for c in pd.phi.components],
        [[1, 0], [0, 0], [0, 1]], atol=1e-15,
    )
    np.testing.assert_allclose(
        [[c.re, c.im] for c in pd.phi_prime.components],
        [[0, 0], [0, -1], [0, 0]], atol=1e-15,
    )
    np.testing.assert_allclose(
        [[c.re, c.im] for c in pd.phi_perp.components],
        [[0, 0], [0, -1], [0, 0]], atol=1e-12,
    )
    assert pd.cls is geom.PointClass.GENERIC


def test_point_data_s3_degenerate(s3):
    pd = geom.point_data(s3, DNum(0.1, -0.2))
    np.testing.assert_allclose(pd.K, 0.0, atol=1e-14)
    assert pd.cls is geom.PointClass.DEGENERATE
    np.testing.assert_allclose(pd.E, -9.0, rtol=1e-14)


def test_phi_dot_phi_prime_vanishes(s1, s2):
    rng = np.random.default_rng(23)
    for S in (s1, s2):
        box = S.domain
        for _ in range(50):
            a = rng.uniform(box.a0, box.a1)
            b = rng.uniform(box.b0, box.b1)
            pd = geom.point_data(S, DNum.from_null(a, b))
            z = dot(pd.phi, pd.phi_prime)
            assert max(abs(z.re), abs(z.im)) <= 1e-10 * max(1.0, abs(pd.E))


def test_project_normal_examples(s1):
    """Tangential input projects to zero; S1 cases at v = pi/2 and pi/4."""
    t = DNum(0.0, math.pi / 2)
    pd = geom.point_data(s1, t)
    z = geom.project_normal(pd.phi, pd.phi)
    assert all(max(abs(c.re), abs(c.im)) <= 1e-12 for c in z.components)
    # at v = pi/2, conj(Phi).Phi' = 0 so Phi' is already normal
    perp = geom.project_normal(pd.phi, pd.phi_prime)
    for c, d in zip(perp.components, pd.phi_prime.components):
        np.testing.assert_allclose([c.re, c.im], [d.re, d.im], atol=1e-12)
    # at v = pi/4, Phi'perp = Phi' - j Phi
    t = DNum(0.0, math.pi / 4)
    pd = geom.point_data(s1, t)
    perp = geom.project_normal(pd.phi, pd.phi_prime)
    want = pd.phi_prime - pd.phi.scale(DNum(0.0, 1.0))
    for c, d in zip(perp.components, want.components):
        np.testing.assert_allclose([c.re, c.im], [d.re, d.im], atol=1e-12)


def test_gauss_K_closed_forms(s1, s2):
    for v, want in ((math.pi / 2, 1.0), (math.pi / 4, 4.0), (0.7, s1_closed_K(0.7))):
        t = DNum(-0.3, v)
        for method in ("projection", "bivector"):
            np.testing.assert_allclose(geom.gauss_K(s1, t, method), want, rtol=1e-9)
    t = DNum(0.2, 0.5)
    for method in ("projection", "bivector"):
        np.testing.assert_allclose(geom.gauss_K(s2, t, method), S2_K_AT_HALF, rtol=1e-9)
    np.testing.assert_allclose(s2_closed_K(0.5), S2_K_AT_HALF, rtol=1e-15)


def test_gauss_K_laplacian(s1, s2, s3):
    t = DNum(-0.3, 0.9)
    np.testing.assert_allclose(
        geom.gauss_K(s1, t, "laplacian"), s1_closed_K(0.9), rtol=1e-6
    )
    t = DNum(0.2, 0.5)
    np.testing.assert_allclose(
        geom.gauss_K(s2, t, "laplacian"), S2_K_AT_HALF, rtol=1e-6
    )
    np.testing.assert_allclose(
        geom.gauss_K(s3, DNum(0.0, 0.0), "laplacian"), 0.0, atol=1e-10
    )


def test_gauss_K_laplacian_margin(s1):
    box = s1.domain
    t = DNum.from_null(box.a0 + 1e-4, 1.0)
    with pytest.raises(geom.GridError, match="margin"):
        geom.gauss_K(s1, t, "laplacian")


def test_second_fundamental_s1(s1):
    """sigma_uu = 0, sigma_uv = (0, -1, 0) at t = j pi/2; normality."""
    t = DNum(0.0, math.pi / 2)
    s_uu, s_uv = geom.second_fundamental(s1, t)
    np.testing.assert_allclose(s_uu, [0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(s_uv, [0, -1, 0], atol=1e-12)
    # normality against x_u = Re Phi and x_v = Im Phi
    pd = geom.point_data(s1, t)
    xu = np.array(pd.phi.re())
    eta = np.diag([-1.0, 1.0, 1.0])
    np.testing.assert_allclose(s_uv @ eta @ xu, 0.0, atol=1e-12)


def test_second_fundamental_s3_zero(s3):
    s_uu, s_uv = geom.second_fundamental(s3, DNum(0.3, 0.1))
    np.testing.assert_allclose(s_uu, 0.0, atol=1e-14)
    np.testing.assert_allclose(s_uv, 0.0, atol=1e-14)


def test_classify_point(s1, s3, s4):
    assert geom.classify_point(s1, DNum(0.0, 1.0)) is geom.PointClass.GENERIC
    assert geom.classify_point(s3, DNum(0.0, 0.0)) is geom.PointClass.DEGENERATE
    t = DNum.from_null(1.5, 0.0)
    assert geom.classify_point(s4, t) is geom.PointClass.DEGENERATE
    # S4 has Phi'^2 = q, nonzero yet null
    sq = dot(s4.phi_prime.eval(t), s4.phi_prime.eval(t))
    np.testing.assert_allclose([sq.re, sq.im], [0.5, -0.5], atol=1e-14)


def test_key_identity_perp_square(s1, s2, s4):
    """Phi'perp^2 = Phi'^2, projection route vs direct."""
    rng = np.random.default_rng(29)
    for S in (s1, s2, s4):
        box = S.domain
        for _ in range(100):
            t = DNum.from_null(
                rng.uniform(box.a0, box.a1), rng.uniform(box.b0, box.b1)
            )
            pd = geom.point_data(S, t)
            lhs = dot(pd.phi_perp, pd.phi_perp)
            rhs = dot(pd.phi_prime, pd.phi_prime)
            scale = max(1.0, abs(rhs.re), abs(rhs.im))
            assert abs(lhs.re - rhs.re) <= 1e-9 * scale
            assert abs(lhs.im - rhs.im) <= 1e-9 * scale


def test_grid_quantities_match_pointwise(s2):
    g = geom.grid_quantities(s2, 9, 9, richardson=True,
                             box=geom.Box(-0.9, -0.1, 0.5, 1.9))
    for i in (1, 4, 7):
        for k in (2, 5):
            t = DNum.from_null(g["a"][i, k], g["b"][i, k])
            np.testing.assert_allclose(
                g["K_biv"][i, k], geom.gauss_K(s2, t, "bivector"), rtol=1e-12
            )
            np.testing.assert_allclose(
                g["K_proj"][i, k], geom.gauss_K(s2, t, "projection"), rtol=1e-9
            )
            np.testing.assert_allclose(
                g["E"][i, k], geom.point_data(s2, t).E, rtol=1e-12
            )


def test_gauss_equation_residual(s1, s2):
    for S, t in ((s1, DNum(-0.3, 0.9)), (s2, DNum(0.2, 0.6))):
        assert geom.gauss_equation_residual(S, t) <= 1e-5


def test_membership_perp_square_in_closure(gallery):
    """Re +- Im of Phi'perp^2 >= -tol at every sampled gallery point."""
    rng = np.random.default_rng(31)
    for S in gallery:
        box = S.domain
        for _ in range(50):
            t = DNum.from_null(
                rng.uniform(box.a0, box.a1), rng.uniform(box.b0, box.b1)
            )
            pd = geom.point_data(S, t)
            sq = dot(pd.phi_perp, pd.phi_perp)
            scale = 1.0 + max(abs(sq.re), abs(sq.im))
            assert sq.p >= -1e-9 * scale
            assert sq.m >= -1e-9 * scale


def test_mean_curvature_residual(s1):
    """Minimal sample ~0; x = (u, v, u^2) gives exactly 2; affine gives 0."""
    u = np.linspace(-0.3, 0.3, 128)
    v = np.linspace(0.7, 1.3, 128)
    x = np.empty((v.size, u.size, 3))
    for i, vv in enumerate(v):
        for k, uu in enumerate(u):
            x[i, k] = geom.point_data(s1, DNum(uu, vv)).x
    assert geom.mean_curvature_residual(x, u[1] - u[0], v[1] - v[0]) <= 1e-3

    u = np.linspace(0, 1, 32)
    v = np.linspace(0, 1, 32)
    U, V = np.meshgrid(u, v)
    x = np.stack([U, V, U * U], axis=-1)
    np.testing.assert_allclose(
        geom.mean_curvature_residual(x, u[1] - u[0], v[1] - v[0]), 2.0, rtol=1e-9
    )
    x = np.stack([U + V, 2 * U, 3 * V - 1], axis=-1)
    assert geom.mean_curvature_residual(x, u[1] - u[0], v[1] - v[0]) <= 1e-12


def _padded_axes(chart, w, h):
    sb = chart.s_box
    pa, pb = 0.02 * (sb.a1 - sb.a0), 0.02 * (sb.b1 - sb.b0)
    return np.linspace(sb.a0 + pa, sb.a1 - pa, w), np.linspace(sb.b0 + pb, sb.b1 - pb, h)


def test_canonical_grid_matches_scalar_routes(s1, s2, s5):
    """x and K on the canonical grid against point_data and the bivector K."""
    for S in (s1, s2, s5):
        chart = canon.canonize(S)
        sa, sb = _padded_axes(chart, 7, 6)
        g = geom.canonical_grid(S, chart, sa, sb)
        assert g["x"].shape == (S.n, 6, 7) and g["K"].shape == (6, 7)
        for j, y in enumerate(sb):
            for i, x in enumerate(sa):
                t = chart.inv(DNum.from_null(float(x), float(y)))
                want_x = geom.point_data(S, t).x
                np.testing.assert_allclose(g["x"][:, j, i], want_x, rtol=1e-10,
                                           atol=1e-10 * np.max(np.abs(want_x)))
                np.testing.assert_allclose(g["K"][j, i], geom.gauss_K(S, t, "bivector"),
                                           rtol=1e-10)
                np.testing.assert_allclose(g["kappa"][j, i], 2.0 * g["nu"][j, i] * g["mu"][j, i],
                                           rtol=1e-14)


def _unit_chart(S):
    box = S.domain
    return canon.CanonicalChart(
        sminus=canon.Map1D.linear(1.0, 0.0, box.a0, box.a1),
        splus=canon.Map1D.linear(1.0, 0.0, box.b0, box.b1),
        base=DNum(0.0, 0.0),
    )


def test_hyperbola_at_raises_where_it_did(s1, s3, s4):
    with pytest.raises(DegeneratePointError, match="degenerate point"):
        geom.hyperbola_at(s3, DNum(0.1, -0.2), _unit_chart(s3))
    with pytest.raises(DegeneratePointError, match="degenerate point"):
        geom.hyperbola_at(s4, DNum.from_null(1.5, 0.0), _unit_chart(s4))
    box = s1.domain
    with pytest.raises(OutOfDomainError, match="null coordinate a="):
        geom.hyperbola_at(s1, DNum.from_null(box.a1 + 0.5, 1.0), _unit_chart(s1))
    with pytest.raises(OutOfDomainError, match="null coordinate b="):
        geom.hyperbola_at(s1, DNum.from_null(-1.0, box.b0 - 0.5), _unit_chart(s1))
    H = geom.hyperbola_at(s1, DNum(0.0, math.pi / 2), _unit_chart(s1))
    np.testing.assert_allclose([H.K, H.E, H.mu], [1.0, -1.0, 1.0], atol=1e-12)


def test_canonical_grid_names_first_offending_point(s1):
    """On a batch, the error names the first bad point in [b, a] row-major order."""
    box = s1.domain
    sa = np.array([-1.0, box.a1 + 0.25, box.a1 + 0.5])
    sb = np.array([1.0, 1.5])
    with pytest.raises(OutOfDomainError, match=f"a={box.a1 + 0.25!r}"):
        geom.canonical_grid(s1, _unit_chart(s1), sa, sb)

