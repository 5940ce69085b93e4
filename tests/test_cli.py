"""CLI: exit codes, determinism, round-trips, export formats."""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dnsurf import cli, geom
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


def test_check_validation_failure(tmp_path, capsys):
    bad = tmp_path / "flat.json"
    bad.write_text(json.dumps({
        "name": "flat", "n": 3,
        "psi": ["t", "t", "0"],
        "domain": {"a": [-1, 1], "b": [-1, 1]},
    }))
    assert run_cli("check", bad) == 2
    assert "validation error" in capsys.readouterr().err


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
        [s2.psi.eval_unchecked(DNum.from_null(float(x), float(y)))[i].re for i in proj]
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
        (["family", GALLERY / "s1.json", "--op", "associated", "--theta", "0.3"], "fam.json"),
        (["mesh", GALLERY / "s1.json", "--grid", "6x6"], "mesh.obj"),
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
