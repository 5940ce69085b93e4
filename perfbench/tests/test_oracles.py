"""Every oracle passes real dnsurf output and fails a corrupted copy.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import jobs
import run
import specs
import speed
import tracing
from jobs import Outcome


@pytest.fixture
def pool(tmp_path):
    return jobs._pool(np.random.default_rng(7), tmp_path)


def _passes_then_fails(job, corrupt):
    """Run job, check it passes, corrupt its output, check fail_ratio rises."""
    tally = run.Tally()
    res = jobs.run_in_process(job)
    tally.record(job, res)
    assert (tally.failed, tally.errors) == (0, [])
    res = corrupt(res) or res
    tally.record(job, res)
    assert tally.failed / tally.attempted == 0.5
    return tally.errors


def _edit(path: Path, fn):
    path.write_text(fn(path.read_text()))


@pytest.mark.parametrize("which", [0, 1, 2])
def test_chart_end_point_perturbed(pool, tmp_path, which):
    v, spec = pool[which]
    job = jobs.canonize_job(v, spec, np.random.default_rng(1), 4, 5, tmp_path)

    def corrupt(res):
        rep = json.loads((tmp_path / "canon.json").read_text())
        rep["s_range"]["plus"][1] += 1e-6
        (tmp_path / "canon.json").write_text(json.dumps(rep))

    errors = _passes_then_fails(job, corrupt)
    assert any("s_range.plus" in e for e in errors)


def test_chart_grid_point_perturbed(pool, tmp_path):
    v, spec = pool[2]  # s5: non-constant integrand
    job = jobs.canonize_job(v, spec, np.random.default_rng(2), 4, 4, tmp_path)

    def corrupt(res):
        lines = (tmp_path / "canon.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = repr(float(cells[2]) + 1e-6)
        lines[3] = ",".join(cells)
        (tmp_path / "canon.csv").write_text("\n".join(lines) + "\n")

    assert any("canonize x" in e for e in _passes_then_fails(job, corrupt))


@pytest.mark.parametrize("column", [2, 3, 5, 8])
def test_invariants_column_corrupted(pool, tmp_path, column):
    v, spec = pool[column % 3]
    job = jobs.invariants_job(v, spec, 8, 7, tmp_path)

    def scale_column(text):
        rows = [r.split(",") for r in text.splitlines()]
        for r in rows[1:]:
            r[column] = repr(float(r[column]) * (1 + 1e-5))
        return "\n".join(",".join(r) for r in rows) + "\n"

    errors = _passes_then_fails(job, lambda res: _edit(tmp_path / "invariants.csv", scale_column))
    assert errors and all(e.startswith("invariants") for e in errors)


def test_mesh_wrong_vertex(pool, tmp_path):
    v, spec = pool[1]
    job = jobs.mesh_job(v, spec, 6, 5, (3, 0, 2), tmp_path)

    def move_vertex(text):
        lines = text.split("\n")
        x = lines[7].split()
        x[2] = repr(float(x[2]) + 1e-3)
        lines[7] = " ".join(x)
        return "\n".join(lines)

    errors = _passes_then_fails(job, lambda res: _edit(tmp_path / "mesh.obj", move_vertex))
    assert any("mesh vertices" in e for e in errors)


def test_mesh_wrong_face(pool, tmp_path):
    v, spec = pool[0]
    job = jobs.mesh_job(v, spec, 5, 5, (0, 1, 2), tmp_path)
    errors = _passes_then_fails(job, lambda res: _edit(
        tmp_path / "mesh.obj", lambda t: t.replace("f 1 2 7\n", "f 1 7 2\n", 1)))
    assert any("mesh faces" in e for e in errors)


@pytest.mark.parametrize("op", ["associated", "conjugate", "homothety", "motion"])
def test_family_spec_corrupted(pool, tmp_path, op):
    v, spec = pool[4]
    job = jobs.family_job(v, spec, op, np.random.default_rng(3), tmp_path)

    def corrupt(res):
        out = tmp_path / "family.json"
        d = json.loads(out.read_text())
        d["psi"][1] = f"1.000001*({d['psi'][1]})"
        out.write_text(json.dumps(d))

    assert any("family psi" in e for e in _passes_then_fails(job, corrupt))


def test_check_stdout_corrupted(pool, tmp_path):
    v, spec = pool[5]
    job = jobs.check_job(v, spec)
    errors = _passes_then_fails(job, lambda res: Outcome(
        res.rc, res.stdout.replace("general type: yes", "general type: no"), res.stderr, res.wall))
    assert any("general type" in e for e in errors)


def test_wrong_exit_code(pool, tmp_path):
    plane = specs.write_json(tmp_path / "plane.json", specs.PLANE)
    bad = jobs.error_job("bad-plane", ["canonize", str(plane), "--grid", "4x4",
                                       "--out", str(tmp_path / "p.json")], 4)
    assert _passes_then_fails(bad, lambda res: Outcome(2, "", "validation error: x", res.wall))
    v, spec = pool[0]
    good = jobs.check_job(v, spec)
    assert _passes_then_fails(good, lambda res: Outcome(3, res.stdout, "parse error: x", res.wall))
    crash = jobs.Job("check", ["check"], lambda r: [])
    assert crash.evaluate(Outcome(None, "", "Traceback", 0.1))


def test_every_bad_input_exits_with_its_code(tmp_path):
    stream = jobs.cli(np.random.default_rng(4), tmp_path)
    bad = [j for j in (next(stream) for _ in range(40)) if j.expect_rc]
    assert sorted({j.kind for j in bad}) == sorted(jobs.BAD_KINDS)
    for job in bad:
        res = jobs.run_in_process(job)
        assert job.evaluate(res) == [], (job.argv, res.stderr)


def test_s5_chart_is_exact_not_the_residual(pool):
    """s5 has P = e^{2a}: the chart is 2 e^{a/2} times sqrt(k) e^{-theta/2}."""
    v = pool[2][0]
    assert v.base.name == "s5"
    x = np.linspace(v.box[0], v.box[1], 5)
    s = v.chart(x, 0, x[0])
    want = math.sqrt(v.k * math.exp(-v.theta)) * 2 * (np.exp(x / 2) - math.exp(x[0] / 2))
    np.testing.assert_allclose(s, want, rtol=1e-14)
    np.testing.assert_allclose(v.chart_inv(s, 0, x[0]), x, rtol=1e-12)


def test_tail_percentile_has_ten_beyond():
    walls = [float(i) for i in range(1, 26)]
    p, value = run.tail(walls)
    assert p == 60 and sum(w > value for w in walls) == 10
    assert run.tail(walls[:10]) == (100, 10.0)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       scipy._lib",
        "import time:        30 |         50 |     scipy",
        "import time:        10 |         60 |   scipy.interpolate",
        "import time:         5 |        215 | dnsurf",
    ])
    got = run.parse_importtime(text)
    assert got == pytest.approx({"dnsurf": 215e-6, "numpy": 150e-6, "scipy": 60e-6})


def test_tracer_patches_callers_and_restores():
    from dnsurf import geom, mink

    original = geom.dot
    tr = tracing.Tracer()
    tr.install()
    try:
        assert geom.dot is mink.dot and geom.dot is not original
        with tr.span("job"):
            mink.wedge_normsq(mink.DVec.from_reals([1.0, 0.0, 0.0]),
                              mink.DVec.from_reals([0.0, 1.0, 0.0]))
    finally:
        tr.uninstall()
    assert geom.dot is original and mink.dot is original
    stats, root = tracing.self_times(tr)
    assert stats["mink.wedge_normsq"][0] == 1 and stats["mink.normsq"][0] == 2
    assert stats["mink.dot"][0] == 3  # two inside normsq, one direct
    assert sum(s for _, s in stats.values()) == pytest.approx(root, rel=1e-9)


def test_speed_scales_each_job_by_the_units_around_it(monkeypatch):
    units = iter([0.010, 0.030, 0.005, 0.005])
    monkeypatch.setattr(speed, "reference_unit", lambda: next(units))
    host = speed.Speed()
    assert host.around(lambda: "job") == "job"
    host.around(lambda: None)
    assert host.slowdowns == pytest.approx([2.0, 0.5])
    assert host.scaled([1.0, 1.0]) == pytest.approx([0.5, 2.0])
    with pytest.raises(ValueError):
        host.scaled([1.0])


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
