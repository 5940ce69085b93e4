"""Conjugate, associated, motion, homothety, and chart transport."""

import pathlib

import numpy as np
import pytest

from dnsurf import canon, cli, family, geom, holo, pointwise
from dnsurf.canon import transport_chart
from dnsurf.dnum import DNum
from dnsurf.errors import MotionError
from dnsurf.family import Motion, apply_motion, associated_surface, conjugate_surface, homothety
from dnsurf.geom import grid_quantities


def _E(S, box=None, n=33):
    return grid_quantities(S, n, n, richardson=False, box=box)["E"]


def test_motion_validation():
    Motion.identity(4)
    Motion.boost(3, 0, 2, 0.3)
    with pytest.raises(MotionError, match="not a Minkowski motion"):
        Motion(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(MotionError, match="inconsistent"):
        Motion(np.eye(3), np.zeros(4))


def test_motion_rejects_non_numeric_entries():
    """An infinite shift would otherwise be written into a spec as 'inf'."""
    with pytest.raises(MotionError, match="finite"):
        Motion(np.eye(3), np.array([np.inf, 0.0, 0.0]))
    with pytest.raises(MotionError, match="numbers"):
        Motion([[1, 0, 0], [0, 1, 0], [0, 0, "x"]], np.zeros(3))


def test_motion_tolerance_scales_with_entries():
    """Exact boosts round on entries of size cosh(beta)^2, which the
    tolerance scales with; a relative error of 1e-6 in one entry does not
    pass, nor does a matrix that is not a motion at all."""
    for beta in (7.5, 8.5, 15.0):
        Motion.boost(3, 0, 1, beta)
    with pytest.raises(MotionError, match="not a Minkowski motion"):
        Motion(np.diag([1.0, 2.0, 1.0]), np.zeros(3))
    A = Motion.boost(3, 0, 1, 8.5).A.copy()
    A[0, 1] *= 1.0 + 1e-6
    with pytest.raises(MotionError, match="not a Minkowski motion"):
        Motion(A, np.zeros(3))


def test_improper_motion_allowed():
    A = np.diag([1.0, -1.0, 1.0])
    m = Motion(A, np.zeros(3))
    assert np.linalg.det(m.A) < 0


def test_conjugate_surface_components(s1):
    """Second component of Re(j Psi) is cos u sin v at matching points."""
    S = conjugate_surface(s1)
    u, v = 0.25, 1.0
    t = DNum(u, v)
    # the stored conjugate patch is parametrized by s with t = j s
    s = DNum.from_null(-t.p, t.m)
    y = np.array(S.psi.eval_unchecked(s).re())
    np.testing.assert_allclose(y[1], np.cos(u) * np.sin(v), atol=1e-12)


def test_conjugate_anti_isometry(s1):
    """E^(j t) = E(t) on the re-oriented patch, i.e. |E^ + E| = 0 as the
    same-orientation energies have opposite signs."""
    S = conjugate_surface(s1)
    box = s1.domain
    refl = geom.Box(-box.a1, -box.a0, box.b0, box.b1)
    diff = _E(S, refl)[:, ::-1] - _E(s1, box)
    assert np.max(np.abs(diff)) <= 1e-10


def test_double_conjugation_restores(s1):
    S = conjugate_surface(conjugate_surface(s1))
    assert S.domain == s1.domain
    rng = np.random.default_rng(41)
    for _ in range(20):
        t = DNum.from_null(
            rng.uniform(s1.domain.a0, s1.domain.a1),
            rng.uniform(s1.domain.b0, s1.domain.b1),
        )
        a = s1.psi.eval_unchecked(t)
        b = S.psi.eval_unchecked(t)
        for ca, cb in zip(a.components, b.components):
            np.testing.assert_allclose([cb.re, cb.im], [ca.re, ca.im], atol=1e-12)


def test_associated_isometry(s1):
    for theta in (-1.0, -0.5, 0.5, 1.0):
        S = associated_surface(s1, theta)
        assert np.max(np.abs(_E(S) - _E(s1))) <= 1e-12


def test_associated_theta_zero_is_identity(s1):
    S = associated_surface(s1, 0.0)
    t = DNum(-0.2, 0.8)
    a, b = s1.psi.eval_unchecked(t), S.psi.eval_unchecked(t)
    for ca, cb in zip(a.components, b.components):
        np.testing.assert_allclose([cb.re, cb.im], [ca.re, ca.im], atol=1e-14)


def test_conjugate_not_in_associated_family():
    """No theta reaches the conjugate: |exp_j(theta)|^2 = 1 but |j|^2 = -1."""
    from dnsurf.dnum import J, exp_j

    for theta in np.linspace(-3, 3, 11):
        assert abs(exp_j(theta).modsq() - 1.0) <= 1e-12 * np.cosh(theta) ** 2
    assert J.modsq() == -1.0


def test_motion_preserves_invariants(s1, s2, boost):
    M = Motion.boost(3, 0, 1, 0.3)
    S = apply_motion(s1, M)
    g1 = grid_quantities(s1, 17, 17, richardson=False)
    g2 = grid_quantities(S, 17, 17, richardson=False)
    np.testing.assert_allclose(g2["K_biv"], g1["K_biv"], atol=1e-10)
    np.testing.assert_allclose(g2["E"], g1["E"], atol=1e-10)
    # nu vanishes on S1; compare the squares, which carry the invariant
    # content without amplifying roundoff through the square root
    np.testing.assert_allclose(g2["nu"] ** 2, g1["nu"] ** 2, atol=1e-9)
    np.testing.assert_allclose(g2["mu"] ** 2, g1["mu"] ** 2, atol=1e-9)
    S2b = apply_motion(s2, boost)
    g1 = grid_quantities(s2, 17, 17, richardson=False)
    g2 = grid_quantities(S2b, 17, 17, richardson=False)
    np.testing.assert_allclose(g2["K_biv"], g1["K_biv"], atol=1e-9)


def test_motion_dimension_mismatch(s1, boost):
    with pytest.raises(MotionError, match="dimension"):
        apply_motion(s1, boost)


def test_homothety_scaling(s1):
    """k = 4: E^ = 16 E, Phi^'^2 = 16, and canonization gives t = s/2."""
    S = homothety(s1, 4.0)
    np.testing.assert_allclose(_E(S), 16.0 * _E(s1), rtol=1e-12)
    P_root, _ = canon.chart_integrands(S)
    np.testing.assert_allclose(P_root.f(-0.5) ** 4, 16.0, rtol=1e-12)
    chart = canon.canonize(S, DNum.from_null(-1.0, 1.2))
    # t - base = s / 2
    for x in (-1.5, -0.5):
        np.testing.assert_allclose(chart.sminus.inv(chart.sminus.fwd(x)), x, atol=1e-10)
        np.testing.assert_allclose(chart.sminus.fwd(x), 2.0 * (x + 1.0), atol=1e-10)


def test_homothety_rejects_nonpositive(s1):
    with pytest.raises(ValueError):
        homothety(s1, -1.0)


def test_degeneracy_transport(s3, s4):
    """Point classes survive every construction."""
    t3 = DNum(0.1, 0.2)
    for S in (
        conjugate_surface(s3),
        associated_surface(s3, 0.4),
        homothety(s3, 2.0),
        apply_motion(s3, Motion.boost(3, 0, 1, 0.2)),
    ):
        box = S.domain
        t = DNum.from_null(
            np.clip(t3.p, box.a0, box.a1), np.clip(t3.m, box.b0, box.b1)
        )
        assert pointwise.classify_point(S, t) is pointwise.PointClass.DEGENERATE
    # s4 exists only per null axis, so it drives the per-axis route alone
    t4 = DNum.from_null(1.5, 0.0)
    for S, t in (
        (homothety(s4, 3.0), t4),
        (conjugate_surface(s4), DNum.from_null(-t4.p, t4.m)),
        (associated_surface(s4, 0.4), t4),
        (apply_motion(s4, Motion.boost(3, 0, 1, 0.2)), t4),
    ):
        assert pointwise.classify_point(S, t) is pointwise.PointClass.DEGENERATE


def test_per_axis_route_matches_spec_route(s1, s2, s6, boost):
    """family.<op>(S), which transforms the null-axis expressions, agrees
    with the surface built from the transformed spec expressions.  s6 has
    different functions on its two null axes, so a per-axis route that
    mixed them up would fail here."""
    gallery = pathlib.Path(__file__).resolve().parents[1] / "gallery"
    exprs = {name: cli.load_spec(str(gallery / f"{name}.json"))[1] for name in ("s1", "s2", "s6")}
    boost3 = Motion.boost(3, 0, 1, 0.3)
    cases = [
        (apply_motion(s2, boost), family.motion_exprs(exprs["s2"], s2.domain, boost)),
        (apply_motion(s6, boost3), family.motion_exprs(exprs["s6"], s6.domain, boost3)),
    ]
    for name, S in (("s1", s1), ("s2", s2), ("s6", s6)):
        box = S.domain
        cases += [
            (conjugate_surface(S), family.conjugate_exprs(exprs[name], box)),
            (associated_surface(S, 0.7), family.associated_exprs(exprs[name], box, 0.7)),
            (homothety(S, 2.5), family.homothety_exprs(exprs[name], box, 2.5)),
        ]
    for per_axis, (new_exprs, new_box) in cases:
        spec_route = geom.make_surface(holo.HoloCurve.from_exprs(new_exprs, new_box))
        assert per_axis.domain == new_box
        g1 = grid_quantities(per_axis, 17, 17, richardson=False)
        g2 = grid_quantities(spec_route, 17, 17, richardson=False)
        for key in ("E", "K_biv"):
            np.testing.assert_allclose(g1[key], g2[key], rtol=1e-12, atol=0)


def test_transport_chart_all_constructions(s2, boost):
    chart = canon.canonize(s2)
    cases = [
        ("conjugate", None, family.conjugate_surface(s2)),
        ("associated", 0.7, family.associated_surface(s2, 0.7)),
        ("homothety", 3.0, family.homothety(s2, 3.0)),
        ("motion", None, family.apply_motion(s2, boost)),
    ]
    for name, param, S in cases:
        moved = transport_chart(chart, name, param)
        assert canon.verify_canonical(S, moved) <= 1e-8


def test_transport_chart_motion_is_identity(s2):
    chart = canon.canonize(s2)
    assert transport_chart(chart, "motion") is chart
