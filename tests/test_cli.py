"""CLI: exit codes, determinism, round-trips, export formats."""

import argparse
import contextlib
import io
import json
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pointwise_ref as ref
from dnsurf import cli, family, geom, holo, sexpr
from dnsurf.cli import main
from dnsurf.dnum import DNum

GALLERY = pathlib.Path(__file__).resolve().parents[1] / "gallery"


def run_cli(*args):
    return main([str(a) for a in args])


def test_check_accepts_gallery(capsys):
    assert run_cli("check", GALLERY / "s1.json") == 0
    out = capsys.readouterr().out
    assert "general type: yes" in out
    assert run_cli("check", GALLERY / "s3.json") == 0
    out = capsys.readouterr().out
    assert "degenerate everywhere" in out


def test_check_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "n": 3,
        "psi": ["t", "tan(t)", "0"],
        "domain": {"a": [0, 1], "b": [0, 1]},
    }))
    assert run_cli("check", bad) == 3
    assert "parse error" in capsys.readouterr().err


#: Nesting past sexpr.MAX_DEPTH that once ended in a RecursionError: the
#: parser recurses 5 frames per sin(, and diff_t, subst_j and eval_expr
#: once per level of a long sum, product or run of unary minus signs.
DEEP_EXPRESSIONS = {
    "sin": "sin(" * 199 + "t" + ")" * 199,
    "sum": "+".join(["t"] * 987),
    "product": "*".join(["t"] * 496),
    "minus": "-" * 987 + "t",
}


@pytest.mark.parametrize("case", list(DEEP_EXPRESSIONS))
def test_check_refuses_nesting_past_the_depth_bound(tmp_path, capsys, case):
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps({
        "name": "deep", "n": 3,
        "psi": ["t", DEEP_EXPRESSIONS[case], "0"],
        "domain": {"a": [0, 1], "b": [0, 1]},
    }))
    assert run_cli("check", bad) == 3
    assert capsys.readouterr().err.startswith(
        "parse error: expression nested deeper than 100 levels (offset "
    )


def test_check_validation_failure(tmp_path, capsys):
    bad = tmp_path / "flat.json"
    bad.write_text(json.dumps({
        "name": "flat", "n": 3,
        "psi": ["t", "t", "0"],
        "domain": {"a": [-1, 1], "b": [-1, 1]},
    }))
    assert run_cli("check", bad) == 2
    assert "validation error" in capsys.readouterr().err


def test_check_rejects_non_finite_literal(tmp_path, capsys):
    """1e400 overflows to inf; the parser refuses it instead of building inf."""
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps({
        "name": "inf", "n": 3,
        "psi": ["t", "sin(t)", "-cos(t)*1e400"],
        "domain": {"a": [-2, 0], "b": [0.4, 2]},
    }))
    assert run_cli("check", bad) == 3
    assert "non-finite number '1e400'" in capsys.readouterr().err


def test_check_rejects_non_finite_domain(tmp_path, capsys):
    bad = tmp_path / "inf.json"
    bad.write_text(
        '{"name": "inf", "n": 3, "psi": ["t", "sin(t)", "-cos(t)"],'
        ' "domain": {"a": [-2, 1e400], "b": [0.4, 2]}}'
    )
    assert run_cli("check", bad) == 2
    assert "non-finite domain box" in capsys.readouterr().err


#: Blocks scipy (a None entry in sys.modules makes `import scipy` raise),
#: then runs commands on the spec argv[1], writing into the directory argv[2].
_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import dnsurf.cli
spec, out = sys.argv[1:]
rcs = [dnsurf.cli.main(argv) for argv in (
    ["check", spec],
    ["canonize", spec, "--out", out + "/c.json"],
    ["family", spec, "--op", "conjugate", "--out", out + "/f.json"],
)]
print(rcs, sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
"""


def test_cli_import_leaves_scipy_out(tmp_path):
    """Import and the check, canonize and conjugate commands run with
    scipy made unimportable, and load no scipy module."""
    r = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(GALLERY / "s1.json"), str(tmp_path)],
                       capture_output=True, text=True, check=True)
    assert r.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_canonize_degenerate_is_numeric_failure(tmp_path, capsys):
    assert run_cli(
        "canonize", GALLERY / "s3.json", "--out", tmp_path / "r.json"
    ) == 4
    assert "numeric error" in capsys.readouterr().err


def test_uv_domain_conversion_warns(tmp_path, capsys):
    spec = tmp_path / "uv.json"
    spec.write_text(json.dumps({
        "name": "uv", "n": 3,
        "psi": ["t", "sin(t)", "-cos(t)"],
        "domain": {"u": [-0.3, 0.3], "v": [0.7, 1.3]},
    }))
    assert run_cli("check", spec) == 0
    assert "enclosing" in capsys.readouterr().err


def test_invariants_csv(tmp_path, capsys):
    out = tmp_path / "inv.csv"
    assert run_cli("invariants", GALLERY / "s1.json", "--grid", "8x8", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == [
        "u", "v", "E", "K_proj", "K_biv", "K_lap", "class",
        "nu", "mu", "kappa", "gauss_residual",
    ]
    assert len(lines) == 65
    assert all("generic" in ln for ln in lines[1:])


def test_invariants_degenerate_cells_empty(tmp_path):
    out = tmp_path / "s3.csv"
    assert run_cli("invariants", GALLERY / "s3.json", "--grid", "4x4", "--out", out) == 0
    for ln in out.read_text().splitlines()[1:]:
        cells = ln.split(",")
        assert cells[6] == "degenerate"
        assert cells[7] == cells[8] == cells[9] == ""
        assert float(cells[4]) == 0.0  # K_biv


def test_family_round_trip(tmp_path, capsys):
    for op, extra in (
        ("conjugate", []),
        ("associated", ["--theta", "0.7"]),
        ("homothety", ["--k", "4"]),
        ("motion", ["--motion", str(GALLERY / "boost.json")]),
    ):
        spec = GALLERY / ("s2.json" if op == "motion" else "s1.json")
        out = tmp_path / f"{op}.json"
        assert run_cli("family", spec, "--op", op, *extra, "--out", out) == 0
        assert run_cli("check", out) == 0


def test_family_homothety_folds_coefficients(tmp_path):
    out = tmp_path / "h.json"
    assert run_cli("family", GALLERY / "s1.json", "--op", "homothety", "--k", "4",
                   "--out", out) == 0
    spec = json.loads(out.read_text())
    assert spec["psi"] == ["4*t", "4*sin(t)", "-4*cos(t)"]


def test_family_associated_is_isometry_at_theta_5(tmp_path, capsys):
    """exp(theta*j) lowers to e^{-+theta} on each axis with no cancellation."""
    out = tmp_path / "a.json"
    assert run_cli("family", GALLERY / "s1.json", "--op", "associated", "--theta", "5",
                   "--out", out) == 0
    assert json.loads(out.read_text())["psi"][0] == "exp(5*j)*t"
    line = capsys.readouterr().out.splitlines()[2]
    assert line.startswith("max |E_theta - E|: ")
    assert float(line.split(": ")[1]) <= 1e-15


@pytest.mark.parametrize("theta", ["12", "20", "30"])
def test_family_associated_is_isometry_at_large_theta(tmp_path, capsys, theta):
    """Each null axis is validated against its own size, so the e^{-+theta}
    scaling of the two axes does not fail the isothermal check."""
    assert run_cli("family", GALLERY / "s1.json", "--op", "associated", "--theta", theta,
                   "--out", tmp_path / "a.json") == 0
    line = capsys.readouterr().out.splitlines()[2]
    assert line.startswith("max |E_theta - E|: ")
    assert float(line.split(": ")[1]) <= 1e-15


def test_check_per_axis_scale_still_refuses_non_isothermal(tmp_path, capsys):
    spec = tmp_path / "ttt.json"
    spec.write_text(json.dumps({
        "name": "ttt", "n": 3, "psi": ["t", "t", "t"],
        "domain": {"a": [-2, 0], "b": [0.4, 2]},
    }))
    assert run_cli("check", spec) == 2
    assert "isothermal condition" in capsys.readouterr().err


#: Psi'^2 = 3 on both null axes.
_NON_ISOTHERMAL = ["2*t", "sin(t)", "-cos(t)"]


@settings(max_examples=20, deadline=None)
@given(construction=st.one_of(
    st.tuples(st.just("associated"), st.floats(-30.0, 30.0)),
    st.tuples(st.just("homothety"), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
))
def test_rescaled_non_isothermal_spec_is_still_refused(tmp_path_factory, construction):
    """associated and homothety scale each null axis by one factor, so the
    per-axis scale keeps refusing a spec that is not isothermal."""
    op, p = construction
    transform = family.associated_exprs if op == "associated" else family.homothety_exprs
    exprs, box = transform([sexpr.parse(e) for e in _NON_ISOTHERMAL], holo.Box(-2, 0, 0.4, 2), p)
    spec = tmp_path_factory.mktemp("spec") / "spec.json"
    spec.write_text(json.dumps({
        "name": "rescaled", "n": 3, "psi": [sexpr.serialize(e) for e in exprs],
        "domain": {"a": [box.a0, box.a1], "b": [box.b0, box.b1]},
    }))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli("check", spec) == 2
    assert "isothermal condition" in err.getvalue()


def _overflowing_power_spec(d):
    spec = d / "pow.json"
    spec.write_text(json.dumps({
        "name": "pow", "n": 3, "psi": ["t^100000000", "sin(t)", "-cos(t)"],
        "domain": {"a": [-2, 0], "b": [0.4, 2]},
    }))
    return ["check", spec]


def _tiny_divisor_spec(d):
    """Psi' = 1e200 on the first component, whose square overflows; the
    t-free divisor 1e-200 squares to 0, so its derivative must not divide
    by that square."""
    spec = d / "tiny.json"
    spec.write_text(json.dumps({**S1_SPEC, "psi": ["t/1e-200", "sin(t)", "-cos(t)"]}))
    return ["check", spec]


@pytest.mark.parametrize("argv", [
    lambda d: ["family", GALLERY / "s1.json", "--op", "associated", "--theta", "400",
               "--out", d / "f.json"],
    _overflowing_power_spec,
    _tiny_divisor_spec,
], ids=["theta-400", "t-to-the-1e8", "t-over-1e-200"])
def test_overflowing_input_is_refused_without_numpy_warnings(tmp_path, argv):
    """Samples that overflow to inf, or whose squares do, exit 2 and numpy
    prints nothing on the way."""
    r = subprocess.run([sys.executable, "-m", "dnsurf.cli", *map(str, argv(tmp_path))],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert "validation error" in r.stderr
    assert "RuntimeWarning" not in r.stderr


def test_family_conjugate_golden_spec(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli("family", GALLERY / "s1.json", "--op", "conjugate", "--out", out) == 0
    spec = json.loads(out.read_text())
    assert spec["psi"] == ["j*(j*t)", "j*sin(j*t)", "-j*cos(j*t)"]
    assert spec["domain"] == {"a": [-0.0, 2.0], "b": [0.4, 2.0]}
    assert '"a": [\n      -0.0,' in out.read_text()


S1_SPEC = {"name": "s1", "n": 3, "psi": ["t", "sin(t)", "-cos(t)"],
           "domain": {"a": [-2.0, 0.0], "b": [0.4, 2.0]}}


@pytest.mark.parametrize("argv", [
    ["check"],
    ["family", "--op", "conjugate"],
    ["family", "--op", "homothety", "--k", "2"],
], ids=["check", "family-conjugate", "family-homothety"])
def test_domain_edge_near_a_null_point_runs_without_warnings(tmp_path, argv):
    """s1 with b down to 0.002: E = -sin^2 v is -1e-6 at the corner
    (a, b) = (0, 0.002) and 0 a step of 1e-3 past it, where the laplacian
    stencil's ln(-||Phi||^2) is undefined.  check and family sample only
    the domain, so they exit 0 with an empty stderr (the children run with
    PYTHONWARNINGS=error, see conftest)."""
    spec = tmp_path / "edge.json"
    spec.write_text(json.dumps({**S1_SPEC, "domain": {"a": [-2.0, 0.0], "b": [0.002, 2.0]}}))
    cmd, *rest = argv
    if cmd == "family":
        rest += ["--out", tmp_path / "f.json"]
    r = subprocess.run([sys.executable, "-m", "dnsurf.cli", cmd, spec, *map(str, rest)],
                       capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")


def _write(path, data):
    """data as given (bytes or text), or else as JSON text."""
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data if isinstance(data, str) else json.dumps(data))
    return path


def _check_spec(**changes):
    return lambda d: ["check", _write(d / "spec.json", {**S1_SPEC, **changes})]


def _motion(text):
    return lambda d: ["family", GALLERY / "s2.json", "--op", "motion", "--motion",
                      _write(d / "m.json", text), "--out", d / "f.json"]


#: Malformed input from outside the program, each a command line built in
#: a scratch directory; every one must exit 2 with a validation error.
MALFORMED = {
    "base-one-value": lambda d: ["canonize", GALLERY / "s1.json", "--base", "0.3",
                                 "--out", d / "r.json"],
    "base-not-numbers": lambda d: ["canonize", GALLERY / "s1.json", "--base", "x,y",
                                   "--out", d / "r.json"],
    "project-not-integer": lambda d: ["mesh", GALLERY / "s1.json", "--project", "0,1,x",
                                      "--out", d / "m.obj"],
    "spec-json-list": lambda d: ["check", _write(d / "spec.json", [S1_SPEC])],
    "spec-not-utf8": lambda d: ["check", _write(d / "spec.json",
                                                json.dumps(S1_SPEC).encode("utf-16"))],
    "n-not-integer": _check_spec(n="three"),
    "n-boolean": _check_spec(n=True, psi=["t"]),
    "psi-entry-not-string": _check_spec(psi=["t", 1, "-cos(t)"]),
    "domain-ab-three-values": _check_spec(domain={"a": [-2.0, -1.0, 0.0], "b": [0.4, 2.0]}),
    "domain-ab-bound-not-number": _check_spec(domain={"a": [-2.0, 0.0], "b": ["x", 2.0]}),
    "domain-uv-three-values": _check_spec(domain={"u": [-0.3, 0.0, 0.3], "v": [0.7, 1.3]}),
    "domain-uv-bound-not-number": _check_spec(domain={"u": [-0.3, 0.3], "v": [None, 1.3]}),
    # a string or an object iterates as two values and true is the int 1,
    # so only a type check refuses them; 10^400 overflows float()
    "domain-ab-string": _check_spec(domain={"a": [-2.0, 0.0], "b": "12"}),
    "domain-ab-object": _check_spec(domain={"a": {"-2": 1, "0": 2}, "b": [0.4, 2.0]}),
    "domain-ab-boolean": _check_spec(domain={"a": [-2.0, 0.0], "b": [True, 2.0]}),
    "domain-ab-huge-integer": _check_spec(domain={"a": [-2.0, 0.0], "b": [0.4, 10**400]}),
    "spec-integer-too-long": lambda d: ["check", _write(
        d / "spec.json", json.dumps(S1_SPEC).replace("2.0]}", "1" + "0" * 5000 + "]}"))],
    "motion-entry-not-number": _motion('{"A": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,"x"]],'
                                       ' "b": [0,0,0,0]}'),
    "motion-entry-infinite": _motion('{"A": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],'
                                     ' "b": [Infinity,0,0,0]}'),
    "motion-entry-string": _motion('{"A": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,"1.0"]],'
                                   ' "b": [0,0,0,0]}'),
    "motion-entry-boolean": _motion('{"A": [[true,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],'
                                    ' "b": [0,0,0,false]}'),
    "motion-entry-huge-integer": _motion('{"A": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],'
                                         ' "b": [0,0,0,1' + '0' * 400 + ']}'),
    "theta-overflows-exp": lambda d: ["family", GALLERY / "s1.json", "--op", "associated",
                                      "--theta", "800", "--out", d / "f.json"],
    "theta-not-finite": lambda d: ["family", GALLERY / "s1.json", "--op", "associated",
                                   "--theta", "nan", "--out", d / "f.json"],
    "k-not-finite": lambda d: ["family", GALLERY / "s1.json", "--op", "homothety",
                               "--k", "inf", "--out", d / "f.json"],
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_is_validation_error(case, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*MALFORMED[case](tmp_path)) == 2
    assert "validation error" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("n", [{"n": 0}, {}], ids=["n-0", "n-absent"])
def test_empty_psi_is_refused_by_name(tmp_path, capsys, n):
    spec = {"name": "s1", "psi": [], "domain": S1_SPEC["domain"], **n}
    assert run_cli("check", _write(tmp_path / "spec.json", spec)) == 2
    assert capsys.readouterr().err == "validation error: spec s1: psi has no components\n"


@pytest.mark.parametrize("n", [True, False])
def test_boolean_n_is_refused_by_name(tmp_path, capsys, n):
    """JSON true is the int 1 to Python; a one-component spec with it used
    to pass the n check and be refused only by the isothermal check."""
    spec = {**S1_SPEC, "n": n, "psi": ["t"]}
    assert run_cli("check", _write(tmp_path / "spec.json", spec)) == 2
    assert capsys.readouterr().err == f"validation error: spec s1: n must be an integer, got {n}\n"


def test_divisor_vanishing_on_an_axis_is_numeric_failure(tmp_path, capsys):
    """1 + j is a zero divisor, so 1/(1+j) has no value on the q axis; the
    a-axis lowering divided the float 1.0 by 0.0 and crashed."""
    spec = _write(tmp_path / "spec.json", {**S1_SPEC, "psi": ["t + 1/(1+j)", "sin(t)", "-cos(t)"]})
    for argv in (["check", spec], ["mesh", spec, "--out", tmp_path / "m.obj"]):
        assert run_cli(*argv) == 4
        assert capsys.readouterr().err == "numeric error: divisor 1+j is 0 where j = -1\n"


@pytest.mark.parametrize("out, csv", [
    ("out.json", "out.csv"),
    ("./report", "./report.csv"),
    ("runs.v2/chart", "runs.v2/chart.csv"),
])
def test_canonize_grid_csv_path_replaces_only_the_extension(tmp_path, monkeypatch, capsys,
                                                            out, csv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    assert run_cli("canonize", GALLERY / "s1.json", "--grid", "3x3", "--out", out) == 0
    assert capsys.readouterr().out.endswith(f"canonical grid: {csv}\n")
    assert (tmp_path / csv).read_text().startswith("s_u,s_v,x0,")
    assert sorted(p.name for p in tmp_path.rglob("*.csv")) == [pathlib.Path(csv).name]


def test_mesh_counts(tmp_path):
    out = tmp_path / "m.obj"
    assert run_cli("mesh", GALLERY / "s1.json", "--grid", "2x2", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2


def test_mesh_s3_planar(tmp_path):
    """S3 vertices are (5u, 4u, 3v): first two coordinates proportional."""
    out = tmp_path / "p.obj"
    assert run_cli("mesh", GALLERY / "s3.json", "--grid", "5x5", "--out", out) == 0
    for ln in out.read_text().splitlines():
        if ln.startswith("v "):
            x0, x1, _ = (float(x) for x in ln.split()[1:])
            assert abs(4 * x0 - 5 * x1) <= 1e-12


def test_mesh_bad_grid_and_indices(tmp_path, capsys):
    assert run_cli("mesh", GALLERY / "s1.json", "--grid", "1x5",
                   "--out", tmp_path / "x.obj") == 2
    capsys.readouterr()
    assert run_cli("mesh", GALLERY / "s1.json", "--project", "0,1,7",
                   "--out", tmp_path / "x.obj") == 2


def test_grid_cap(tmp_path, capsys):
    """An oversized --grid is a validation error, raised before any sampling."""
    assert cli._parse_grid("2048x2048") == (2048, 2048)
    for cmd in ("invariants", "mesh", "canonize"):
        assert run_cli(cmd, GALLERY / "s1.json", "--grid", "100000x100000",
                       "--out", tmp_path / "x.out") == 2
        assert "too large" in capsys.readouterr().err
    with pytest.raises(cli.GridError):
        cli._parse_grid(f"{cli.MAX_GRID_POINTS // 2 + 1}x2")


def _fmt_ref(x):
    return f"{float(x):.17g}"


def _invariants_ref(S, w, h):
    """The invariants CSV as a per-value formatter writes it."""
    g = geom.grid_quantities(S, w, h, box=cli._inset_box(S.domain, 2.0 * geom.H_FD))
    names = {0: "degenerate", 1: "superconformal", 2: "generic"}
    lines = ["u,v,E,K_proj,K_biv,K_lap,class,nu,mu,kappa,gauss_residual"]
    for i in range(h):
        for k in range(w):
            c = int(g["class"][i, k])
            row = [_fmt_ref(g[n][i, k]) for n in ("u", "v", "E", "K_proj", "K_biv", "K_lap")]
            row.append(names[c])
            row += ["", "", ""] if c == 0 else [_fmt_ref(g[n][i, k]) for n in ("nu", "mu", "kappa")]
            row.append(_fmt_ref(g["gauss_residual"][i, k]))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_invariants_bytes_match_per_value_formatter(tmp_path, s1, s3):
    for name, S in (("s1", s1), ("s3", s3)):
        out = tmp_path / f"{name}.csv"
        assert run_cli("invariants", GALLERY / f"{name}.json", "--grid", "7x5", "--out", out) == 0
        assert out.read_bytes() == _invariants_ref(S, 7, 5).encode()


def test_mesh_matches_pointwise_psi(tmp_path, s2):
    w, h, proj = 6, 4, (3, 0, 1)
    out = tmp_path / "m.obj"
    assert run_cli("mesh", GALLERY / "s2.json", "--grid", f"{w}x{h}",
                   "--project", ",".join(map(str, proj)), "--out", out) == 0
    lines = out.read_text().splitlines()
    box = s2.domain
    want = [
        [ref.at(s2.psi, DNum.from_null(float(x), float(y)))[i].re for i in proj]
        for y in np.linspace(box.b0, box.b1, h) for x in np.linspace(box.a0, box.a1, w)
    ]
    got = [[float(c) for c in ln.split()[1:]] for ln in lines[: w * h]]
    assert all(ln.startswith("v ") for ln in lines[: w * h])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    faces = []
    for ib in range(h - 1):
        for ia in range(w - 1):
            v00 = ib * w + ia + 1
            faces += [f"f {v00} {v00 + 1} {v00 + w + 1}", f"f {v00} {v00 + w + 1} {v00 + w}"]
    assert lines[w * h:] == faces


def test_canonize_s1_off_centre_base(tmp_path, s1):
    """Phi'^2 = 1 on s1, so the chart is t - base: base (u, v) = (0.3, 0.5)
    is the null point (a, b) = (-0.2, 0.8)."""
    out = tmp_path / "c.json"
    assert run_cli("canonize", GALLERY / "s1.json", "--grid", "5x4",
                   "--base", "0.3,0.5", "--out", out) == 0
    rep = json.loads(out.read_text())
    assert rep["base"] == [0.3, 0.5]
    np.testing.assert_allclose(rep["s_range"]["minus"], [-1.8, 0.2], atol=1e-12)
    np.testing.assert_allclose(rep["s_range"]["plus"], [-0.4, 1.2], atol=1e-12)
    rows = np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1)
    assert rows.shape == (20, 9)
    for s_u, s_v, *x in rows[:, :5]:
        t = DNum.from_null(s_u - s_v - 0.2, s_u + s_v + 0.8)
        want = [c.re for c in s1.psi.eval_unchecked(t)]
        np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-12)


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    """main() calls in a row share one parser, and none sees the arguments
    of another: check after canonize --base has no --out or --base, and
    canonize after it has the default base again."""
    calls = []
    real = argparse.ArgumentParser.parse_args

    def spy(parser, *args, **kwargs):
        ns = real(parser, *args, **kwargs)
        calls.append((parser, vars(ns).copy()))
        return ns

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    spec, out = GALLERY / "s1.json", tmp_path / "c.json"
    assert run_cli("canonize", spec, "--base", "0.3,0.5", "--grid", "3x3", "--out", out) == 0
    assert json.loads(out.read_text())["base"] == [0.3, 0.5]
    assert run_cli("check", spec) == 0
    assert run_cli("canonize", spec, "--grid", "3x3", "--out", out) == 0
    (first, _), (second, check_args), (third, canonize_args) = calls
    assert first is second is third
    assert set(check_args) == {"process_entry", "command", "spec", "func"}
    assert canonize_args["base"] is None
    assert json.loads(out.read_text())["base"] != [0.3, 0.5]


def test_missing_file_is_validation_error(tmp_path, capsys):
    assert run_cli("check", tmp_path / "nope.json") == 2


def _run_subprocess(args):
    r = subprocess.run(
        [sys.executable, "-m", "dnsurf.cli", *[str(a) for a in args]],
        capture_output=True,
    )
    assert r.returncode == 0, r.stderr.decode()


def test_determinism_byte_identical(tmp_path):
    """Every command run twice produces byte-identical artifacts."""
    cases = [
        (["invariants", GALLERY / "s2.json", "--grid", "8x8"], "inv.csv"),
        (["canonize", GALLERY / "s2.json", "--grid", "5x5"], "can.json"),
        (["canonize", GALLERY / "s1.json", "--grid", "5x5", "--base", "0.3,0.5"], "can.json"),
        (["family", GALLERY / "s1.json", "--op", "associated", "--theta", "0.3"], "fam.json"),
        (["mesh", GALLERY / "s1.json", "--grid", "6x6"], "mesh.obj"),
        (["canonize", GALLERY / "s6.json", "--grid", "5x5"], "can.json"),
        (["family", GALLERY / "s6.json", "--op", "conjugate"], "fam.json"),
    ]
    for args, fname in cases:
        outs = []
        for run in (1, 2):
            out = tmp_path / f"run{run}-{fname}"
            _run_subprocess(args + ["--out", out])
            outs.append(out.read_bytes())
            if fname == "can.json":
                outs.append((tmp_path / f"run{run}-can.csv").read_bytes())
        if fname == "can.json":
            assert outs[0] == outs[2] and outs[1] == outs[3]
        else:
            assert outs[0] == outs[1]
