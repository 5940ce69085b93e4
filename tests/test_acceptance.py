"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every criterion is exercised end to end through the public API at the
stated tolerances, on the shared four-surface gallery.
"""

import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dnsurf import canon, family, holo, pointwise, sexpr
from dnsurf.dnum import DNum, nth_root_positive
from dnsurf.geom import grid_quantities
from dnsurf.holo import Box
from dnsurf.mink import dot
from dnsurf.pointwise import PointClass, gauss_K, point_data

GALLERY = pathlib.Path(__file__).resolve().parents[1] / "gallery"

# Independently derived reference for the second gallery surface:
# K(u, v) = -8 sinh(2v) sin(2v) / (cos 2v - cosh 2v)^3, frozen value at
# v = 1/2 from a symbolic null-component expansion done by hand/oracle.
S2_K_AT_HALF = 7.845606765347113


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"{tag} criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _inset(box: Box, m: float = 5e-3) -> Box:
    return Box(box.a0 + m, box.a1 - m, box.b0 + m, box.b1 - m)


def _random_points(S, count: int, seed: int):
    rng = np.random.default_rng(seed)
    box = S.domain
    for _ in range(count):
        yield DNum.from_null(
            float(rng.uniform(box.a0, box.a1)),
            float(rng.uniform(box.b0, box.b1)),
        )


def test_criterion_01_k_formula_agreement(s1, s2):
    worst_pb = worst_lap = 0.0
    for S in (s1, s2):
        g = grid_quantities(S, 64, 64, h_fd=1e-3, richardson=True,
                            box=_inset(S.domain))
        worst_pb = max(worst_pb, float(np.max(
            np.abs(g["K_proj"] - g["K_biv"]) / np.abs(g["K_biv"]))))
        worst_lap = max(worst_lap, float(np.max(
            np.abs(g["K_lap"] - g["K_biv"]) / np.abs(g["K_biv"]))))
    ok = worst_pb <= 1e-9 and worst_lap <= 5e-5

    # closed forms on the first surface: K = 1 / sin^4 v
    k_half = gauss_K(s1, DNum(0.0, math.pi / 2), "bivector")
    k_quarter = gauss_K(s1, DNum(0.0, math.pi / 4), "bivector")
    ok = ok and abs(k_half - 1.0) <= 1e-9 and abs(k_quarter - 4.0) <= 1e-9

    # closed form on the second surface against the frozen oracle value
    g = grid_quantities(s2, 64, 64, richardson=True, box=_inset(s2.domain))
    v = g["v"]
    closed = -8.0 * np.sinh(2 * v) * np.sin(2 * v) / (
        np.cos(2 * v) - np.cosh(2 * v)) ** 3
    ok = ok and float(np.max(np.abs(g["K_biv"] - closed) / np.abs(closed))) <= 1e-9
    vv = 0.5
    oracle = -8.0 * math.sinh(2 * vv) * math.sin(2 * vv) / (
        math.cos(2 * vv) - math.cosh(2 * vv)) ** 3
    ok = ok and abs(oracle - S2_K_AT_HALF) <= 1e-12 * S2_K_AT_HALF

    _report(1, "three K formulas and closed forms agree", ok,
            f"proj-biv {worst_pb:.2e}, lap-biv {worst_lap:.2e}")


def test_criterion_02_gauss_equation(s1, s2):
    worst = 0.0
    for S in (s1, s2):
        g = grid_quantities(S, 64, 64, h_fd=1e-3, richardson=True,
                            box=_inset(S.domain))
        worst = max(worst, float(np.max(g["gauss_residual"])))
    _report(2, "Gauss equation residual <= 5e-4", worst <= 5e-4,
            f"max {worst:.2e}")


def test_criterion_03_perp_square_identity(gallery):
    worst = 0.0
    for i, S in enumerate(gallery):
        for t in _random_points(S, 2500, seed=100 + i):
            pd = point_data(S, t)
            lhs = dot(pd.phi_perp, pd.phi_perp)
            rhs = dot(pd.phi_prime, pd.phi_prime)
            scale = max(1.0, abs(rhs.re), abs(rhs.im))
            worst = max(
                worst,
                abs(lhs.re - rhs.re) / scale,
                abs(lhs.im - rhs.im) / scale,
            )
    _report(3, "Phi'perp^2 = Phi'^2 on 10^4 gallery points",
            worst <= 1e-9, f"max rel {worst:.2e}")


def test_criterion_04_canonization(s1, s2):
    # Phi'^2 = 2 on the second surface, so s = 2^{1/4} (t - base) per axis
    chart = canon.canonize(s2)
    r = 2.0 ** 0.25
    worst = 0.0
    for x in np.linspace(chart.sminus.lo, chart.sminus.hi, 21):
        worst = max(worst, abs(chart.sminus.fwd(x) - r * (x - chart.base.p)))
    for x in np.linspace(chart.splus.lo, chart.splus.hi, 21):
        worst = max(worst, abs(chart.splus.fwd(x) - r * (x - chart.base.m)))
    ok = worst <= 1e-8
    res = canon.verify_canonical(s2, chart)
    ok = ok and res <= 1e-8

    # homothety with k = 4 doubles the chart slope: t = s / 2
    S = family.homothety(s1, 4.0)
    base = DNum.from_null(-1.0, 1.2)
    chart4 = canon.canonize(S, base)
    worst4 = 0.0
    for x in np.linspace(chart4.sminus.lo, chart4.sminus.hi, 21):
        worst4 = max(worst4, abs(chart4.sminus.fwd(x) - 2.0 * (x - base.p)))
    for x in np.linspace(chart4.splus.lo, chart4.splus.hi, 21):
        worst4 = max(worst4, abs(chart4.splus.fwd(x) - 2.0 * (x - base.m)))
    ok = ok and worst4 <= 1e-10

    _report(4, "canonization charts and similarity scaling", ok,
            f"s=2^(1/4)t dev {worst:.2e}, verify {res:.2e}, k=4 dev {worst4:.2e}")


def test_criterion_05_uniqueness(s2):
    c1 = canon.canonize(s2)
    c2 = canon.canonize(s2, DNum.from_null(-0.8, 0.6))
    rel = canon.relate_charts(c1, c2)
    ok = rel.residual <= 1e-7 and not rel.conjugated and rel.sign in (1, -1)
    rel2 = canon.relate_charts(c1, c2.conjugated())
    ok = ok and rel2.conjugated and rel2.residual <= 1e-7
    _report(5, "chart uniqueness t = +/- s + c and conjugation detection",
            ok, f"residuals {rel.residual:.2e}, {rel2.residual:.2e}")


def test_criterion_06_degeneracy(gallery, s3, s4):
    ok = True
    worst_k = 0.0
    for i, S in enumerate((s3, s4)):
        for t in _random_points(S, 500, seed=300 + i):
            ok = ok and pointwise.classify_point(S, t) is PointClass.DEGENERATE
            worst_k = max(worst_k, abs(gauss_K(S, t, "bivector")))
    ok = ok and worst_k <= 1e-10

    # membership Phi'perp^2 in D0 union D+ at every gallery point
    worst_neg = 0.0
    for i, S in enumerate(gallery):
        for t in _random_points(S, 250, seed=400 + i):
            sq = dot(point_data(S, t).phi_perp, point_data(S, t).phi_perp)
            scale = max(1.0, abs(sq.re), abs(sq.im))
            worst_neg = max(worst_neg, -sq.p / scale, -sq.m / scale)
    ok = ok and worst_neg <= 1e-9
    _report(6, "degenerate surfaces classify 100% degenerate, cone membership",
            ok, f"max |K| {worst_k:.2e}, worst cone defect {worst_neg:.2e}")


def test_criterion_07_families(s1, s2, boost):
    def E(S, box=None):
        return grid_quantities(S, 33, 33, richardson=False, box=box)["E"]

    base_E = E(s1)
    worst_assoc = 0.0
    for theta in (-1.0, -0.5, 0.5, 1.0):
        worst_assoc = max(worst_assoc, float(np.max(
            np.abs(E(family.associated_surface(s1, theta)) - base_E))))
    ok = worst_assoc <= 1e-12

    Sc = family.conjugate_surface(s1)
    box = s1.domain
    refl = Box(-box.a1, -box.a0, box.b0, box.b1)
    # the stored conjugate patch is re-oriented, so the same-orientation
    # energies have opposite signs: |E^ + E| = |E_refl reversed - E|
    worst_conj = float(np.max(np.abs(E(Sc, refl)[:, ::-1] - E(s1, box))))
    ok = ok and worst_conj <= 1e-10

    chart = canon.canonize(s2)
    worst_tr = 0.0
    for name, param, S in (
        ("conjugate", None, family.conjugate_surface(s2)),
        ("associated", 0.7, family.associated_surface(s2, 0.7)),
        ("homothety", 3.0, family.homothety(s2, 3.0)),
        ("motion", None, family.apply_motion(s2, boost)),
    ):
        moved = canon.transport_chart(chart, name, param)
        worst_tr = max(worst_tr, canon.verify_canonical(S, moved))
    ok = ok and worst_tr <= 1e-8
    _report(7, "associated isometry, conjugate anti-isometry, chart transport",
            ok, f"assoc {worst_assoc:.2e}, conj {worst_conj:.2e}, "
                f"transport {worst_tr:.2e}")


def test_criterion_08_hyperbola(s2):
    chart = canon.canonize(s2)
    sbox = chart.s_box
    wa, wb = sbox.a1 - sbox.a0, sbox.b1 - sbox.b0
    sa = np.linspace(sbox.a0 + 0.02 * wa, sbox.a1 - 0.02 * wa, 9)
    sb = np.linspace(sbox.b0 + 0.02 * wb, sbox.b1 - 0.02 * wb, 9)

    def mdot(x, y):
        return float(-x[0] * y[0] + np.dot(x[1:], y[1:]))

    worst = 0.0
    worst_frame = 0.0
    for x in sa:
        for y in sb:
            s = DNum.from_null(float(x), float(y))
            H = pointwise.hyperbola_at(s2, s, chart)
            t = chart.inv(s)
            Kb = gauss_K(s2, t, "bivector")  # invariant, independent route
            worst = max(
                worst,
                abs(Kb - (H.mu**2 - H.nu**2)),
                abs(H.kappa - 2.0 * H.nu * H.mu),
                abs(Kb * Kb + H.kappa**2 - (H.mu**2 + H.nu**2) ** 2),
                abs(H.E + (Kb * Kb + H.kappa**2) ** -0.25),
            )
            assert not H.frame_degenerate
            worst = max(
                worst,
                abs(mdot(H.n1, H.n1) - 1.0),
                abs(mdot(H.n2, H.n2) - 1.0),
                abs(mdot(H.n1, H.n2)),
            )
            sig_uu = H.nu * H.n1 * (-H.E)
            sig_uv = H.mu * H.n2 * (-H.E)
            for psi in (-1.0, 0.3, 1.0):
                p = pointwise.hyperbola_sample(sig_uu, sig_uv, H.E, psi)
                xi, eta = mdot(p, H.n1), mdot(p, H.n2)
                worst_frame = max(
                    worst_frame,
                    abs((xi / H.nu) ** 2 - (eta / H.mu) ** 2 - 1.0),
                )
    ok = worst <= 1e-8 and worst_frame <= 1e-8
    _report(8, "hyperbola invariant relations and frame equation", ok,
            f"relations {worst:.2e}, frame {worst_frame:.2e}")


def test_criterion_09_algebra_layer():
    rng = np.random.default_rng(97)
    ar, ai, br, bi = rng.uniform(-2.0, 2.0, size=(4, 100_000))
    pre, pim = ar * br + ai * bi, ar * bi + ai * br
    lhs = pre * pre - pim * pim
    rhs = (ar * ar - ai * ai) * (br * br - bi * bi)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    worst_mul = float(np.max(np.abs(lhs - rhs) / scale))
    ok = worst_mul <= 1e-12

    worst_root = 0.0
    for _ in range(500):
        z = DNum.from_null(float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10)))
        for n in (2, 3, 4):
            r = nth_root_positive(z, n)
            back = r
            for _ in range(n - 1):
                back = back * r
            scale_z = max(1.0, abs(z.re), abs(z.im))
            worst_root = max(worst_root, abs(back.re - z.re) / scale_z,
                             abs(back.im - z.im) / scale_z)
    ok = ok and worst_root <= 1e-10

    worst_low = 0.0
    box = Box(-1.0, 1.0, 0.2, 1.8)
    for text in ("sinh(t)*j + 2*t - cos(t)/3", "exp(t/2) - j*sin(t)^2",
                 "(t + j)*(t - 1) + cosh(t)"):
        ast = sexpr.parse(text)
        hm = holo.HoloMap.from_expr(ast, box)
        for _ in range(200):
            t = DNum.from_null(float(rng.uniform(-1, 1)),
                               float(rng.uniform(0.2, 1.8)))
            d = sexpr.eval_expr(ast, t)
            w = hm.eval_unchecked(t)
            scale_t = max(1.0, abs(d.re), abs(d.im))
            worst_low = max(worst_low, abs(d.re - w.re) / scale_t,
                            abs(d.im - w.im) / scale_t)
    ok = ok and worst_low <= 1e-12
    _report(9, "algebra multiplicativity, roots, parser lowering", ok,
            f"mul {worst_mul:.2e}, root {worst_root:.2e}, lower {worst_low:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    cases = [
        (["check", GALLERY / "s1.json"], []),
        (["check", GALLERY / "s3.json"], []),
        (["invariants", GALLERY / "s1.json", "--grid", "8x8"], ["out.csv"]),
        (["invariants", GALLERY / "s2.json", "--grid", "8x8"], ["out.csv"]),
        (["canonize", GALLERY / "s2.json", "--grid", "5x5"], ["out.json", "out.csv"]),
        (["canonize", GALLERY / "s1.json", "--grid", "5x5", "--base", "0.3,0.5"],
         ["out.json", "out.csv"]),
        (["family", GALLERY / "s1.json", "--op", "conjugate"], ["out.json"]),
        (["family", GALLERY / "s1.json", "--op", "associated", "--theta", "0.7"],
         ["out.json"]),
        (["family", GALLERY / "s1.json", "--op", "homothety", "--k", "3"],
         ["out.json"]),
        (["family", GALLERY / "s2.json", "--op", "motion", "--motion",
          GALLERY / "boost.json"], ["out.json"]),
        (["mesh", GALLERY / "s1.json", "--grid", "6x6"], ["out.obj"]),
    ]
    ok = True
    for args, artifacts in cases:
        d = tmp_path / f"{args[0]}-{abs(hash(tuple(map(str, args)))) & 0xffff}"
        d.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, "-m", "dnsurf.cli", *[str(a) for a in args]]
        if artifacts:
            cmd += ["--out", str(d / artifacts[0])]
        runs = []
        for _ in (1, 2):
            r = subprocess.run(cmd, capture_output=True)
            assert r.returncode == 0, r.stderr.decode()
            blob = r.stdout
            for name in artifacts:
                blob += (d / name).read_bytes()
            runs.append(blob)
        ok = ok and runs[0] == runs[1]
    _report(10, "CLI artifacts byte-identical across repeated runs", ok)
