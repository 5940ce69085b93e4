"""The three workloads as seeded job streams, and the two ways to run a job.

A job is one ``dnsurf`` command line plus the oracle for what it must
produce.  ``sweep`` and ``chart`` call ``dnsurf.cli.main`` in the benchmark
process; ``cli`` starts a fresh ``python -m dnsurf.cli`` per job.  Every
stream cycles through a pool of nine variants (s1, s2, s5, s1, ...) so that
each run sees the same mix of surfaces whatever the seed.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import oracles
import specs
from specs import Variant

#: Grids of the sweep.  A mesh job evaluates every vertex through the scalar
#: path, so at ~170^2 (~145^2 on s5, whose vertices cost 1.4x as much) it
#: costs about what an invariants job costs at ~256^2 on any surface; equal
#: costs keep the median off the gap between two job-time clusters.
INVARIANTS_GRID = (250, 262)
MESH_GRID = {"s1": (168, 174), "s2": (170, 176), "s5": (142, 148)}
#: Canonical grid of the chart workload, per base surface.  A point costs
#: about 1.5x as much on s2 and 2.7x as much on s5 as on s1, so the grids
#: shrink with it: every chart job then costs about the same, and the
#: median is that of one cluster of job times rather than of three.
CHART_GRID = {"s1": (23, 25), "s2": (19, 21), "s5": (14, 16)}

CHILD_TIMEOUT_S = 120


@dataclass
class Outcome:
    rc: int | None  # None: the job crashed or timed out
    stdout: str
    stderr: str
    wall: float


@dataclass
class Job:
    kind: str
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    expect_rc: int = 0
    points: int = 0
    outputs: tuple[Path, ...] = field(default_factory=tuple)

    def clear_outputs(self):
        for p in self.outputs:
            p.unlink(missing_ok=True)

    def bytes_out(self, res: Outcome) -> int:
        return len(res.stdout.encode()) + sum(p.stat().st_size for p in self.outputs if p.exists())

    def evaluate(self, res: Outcome) -> list[str]:
        """Oracle verdict: empty when the job did what it must."""
        if res.rc is None:
            return [f"{self.kind}: crashed: {res.stderr.strip()[-300:]}"]
        if self.expect_rc:
            return [f"{self.kind}: {e}" for e in
                    oracles.check_error(self.expect_rc, res.rc, res.stderr)]
        if res.rc != 0:
            return [f"{self.kind}: exit {res.rc}, expected 0: {res.stderr.strip()[-300:]}"]
        try:
            return [f"{self.kind}: {e}" for e in self.check(res)]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{self.kind}: output unreadable: {exc!r}"]


# -- job factories -------------------------------------------------------

def _read(p: Path) -> str:
    return p.read_text(encoding="utf-8")


def invariants_job(v: Variant, spec: Path, w: int, h: int, work: Path) -> Job:
    out = work / "invariants.csv"
    return Job("invariants", ["invariants", str(spec), "--grid", f"{w}x{h}", "--out", str(out)],
               lambda r: oracles.check_invariants(v, w, h, _read(out)), points=w * h, outputs=(out,))


def mesh_job(v: Variant, spec: Path, w: int, h: int, proj, work: Path) -> Job:
    out = work / "mesh.obj"
    proj = tuple(int(i) for i in proj)
    return Job("mesh", ["mesh", str(spec), "--grid", f"{w}x{h}", "--project",
                        ",".join(map(str, proj)), "--out", str(out)],
               lambda r: oracles.check_mesh(v, w, h, proj, _read(out)), points=w * h, outputs=(out,))


def canonize_job(v: Variant, spec: Path, rng: np.random.Generator, w: int, h: int,
                 work: Path) -> Job:
    a0, a1, b0, b1 = v.box
    ba, bb = a0 + rng.uniform(0.1, 0.9) * (a1 - a0), b0 + rng.uniform(0.1, 0.9) * (b1 - b0)
    u, vv = (ba + bb) / 2, (bb - ba) / 2
    rep, csv = work / "canon.json", work / "canon.csv"
    # --base=... so that a negative u is not read as an option
    return Job("canonize", ["canonize", str(spec), f"--base={u!r},{vv!r}",
                            "--grid", f"{w}x{h}", "--out", str(rep)],
               lambda r: oracles.check_canonize(v, (u - vv, u + vv), w, h, _read(rep), _read(csv)),
               points=w * h, outputs=(rep, csv))


def family_job(v: Variant, spec: Path, op: str, rng: np.random.Generator, work: Path) -> Job:
    out = work / "family.json"
    argv = ["family", str(spec), "--op", op, "--out", str(out)]
    param = None
    if op == "associated":
        param = float(rng.uniform(-0.8, 0.8))
        argv += ["--theta", repr(param)]
    elif op == "homothety":
        param = float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        argv += ["--k", repr(param)]
    elif op == "motion":
        _, A, b = specs.random_motion(rng, v.n)
        param = (A, b)
        argv += ["--motion", str(specs.write_json(work / "motion.json",
                                                   {"A": A.tolist(), "b": b.tolist()}))]
    return Job(f"family-{op}", argv,
               lambda r: oracles.check_family(v, op, param, _read(out), r.stdout), outputs=(out,))


def check_job(v: Variant, spec: Path) -> Job:
    return Job("check", ["check", str(spec)], lambda r: oracles.check_check(v, r.stdout))


def error_job(kind: str, argv: list[str], rc: int) -> Job:
    return Job(kind, argv, lambda r: [], expect_rc=rc)


# -- workloads -----------------------------------------------------------

def _pool(rng: np.random.Generator, work: Path) -> list[tuple[Variant, Path]]:
    return [(v, specs.write_json(work / f"{v.name}.json", v.spec()))
            for v in specs.variant_pool(rng)]


def _grid(rng: np.random.Generator, lo_hi: tuple[int, int]) -> tuple[int, int]:
    w, h = rng.integers(lo_hi[0], lo_hi[1] + 1, 2)
    return int(w), int(h)


def sweep(rng: np.random.Generator, work: Path) -> Iterator[Job]:
    """invariants and mesh, alternating, on each variant in turn."""
    pool = _pool(rng, work)
    for j in count():
        v, spec = pool[(j // 2) % len(pool)]
        if j % 2 == 0:
            yield invariants_job(v, spec, *_grid(rng, INVARIANTS_GRID), work)
        else:
            proj = rng.choice(v.n, 3, replace=False)
            yield mesh_job(v, spec, *_grid(rng, MESH_GRID[v.base.name]), proj, work)


def chart(rng: np.random.Generator, work: Path) -> Iterator[Job]:
    """canonize with a seeded base point on each variant in turn."""
    pool = _pool(rng, work)
    for j in count():
        v, spec = pool[j % len(pool)]
        yield canonize_job(v, spec, rng, *_grid(rng, CHART_GRID[v.base.name]), work)


#: One cycle of the cli workload: 8 good commands and 2 bad inputs.  The
#: per-point commands come first so that even a short traced run has them.
CLI_SLOTS = ("mesh", "check", "bad", "canonize", "associated",
             "invariants", "conjugate", "bad", "homothety", "motion")
BAD_KINDS = ("bad-grid", "bad-timelike", "bad-parse", "bad-plane")


def cli(rng: np.random.Generator, work: Path) -> Iterator[Job]:
    """Fresh-process commands, one in five a bad input with a documented exit code."""
    pool = _pool(rng, work)
    plane = specs.write_json(work / "plane.json", specs.PLANE)
    spacelike = specs.write_json(work / "spacelike.json", specs.SPACELIKE)
    bad_specs = []
    for i, text in enumerate(specs.BAD_EXPRS):
        spec = pool[i % len(pool)][0].spec()
        spec["psi"][i % len(spec["psi"])] = text
        bad_specs.append(specs.write_json(work / f"bad-parse-{i}.json", spec))
    bads = 0
    for j in count():
        slot = CLI_SLOTS[j % len(CLI_SLOTS)]
        v, spec = pool[j % len(pool)]
        if slot == "check":
            yield check_job(v, spec)
        elif slot in ("associated", "conjugate", "homothety", "motion"):
            yield family_job(v, spec, slot, rng, work)
        elif slot == "invariants":
            yield invariants_job(v, spec, 8, 8, work)
        elif slot == "mesh":
            yield mesh_job(v, spec, 8, 8, rng.choice(v.n, 3, replace=False), work)
        elif slot == "canonize":
            yield canonize_job(v, spec, rng, 5, 5, work)
        else:
            kind = BAD_KINDS[bads % len(BAD_KINDS)]
            bads += 1
            if kind == "bad-grid":
                grid = ("1x8", "8x1", "8by8", "x")[int(rng.integers(4))]
                yield error_job(kind, ["invariants", str(spec), "--grid", grid,
                                       "--out", str(work / "invariants.csv")], 2)
            elif kind == "bad-timelike":
                yield error_job(kind, ["check", str(spacelike)], 2)
            elif kind == "bad-parse":
                yield error_job(kind, ["check", str(bad_specs[int(rng.integers(len(bad_specs)))])], 3)
            else:
                yield error_job(kind, ["canonize", str(plane), "--grid", "4x4",
                                       "--out", str(work / "plane-canon.json")], 4)


WORKLOADS = {"sweep": sweep, "chart": chart, "cli": cli}
IN_PROCESS = ("sweep", "chart")
#: Jobs in one round of each stream's mix: a timed run stops only at the
#: end of a round, so every run holds the same mix of job kinds.
ROUND = {"sweep": 2, "chart": 3, "cli": len(CLI_SLOTS)}


def warmup_jobs(rng: np.random.Generator, work: Path) -> list[Job]:
    """Tiny in-process jobs that fill lazy imports and caches before timing."""
    work = work / "warmup"
    work.mkdir(exist_ok=True)
    v, spec = _pool(rng, work)[2]
    return [invariants_job(v, spec, 6, 6, work), mesh_job(v, spec, 6, 6, (0, 1, 2), work),
            canonize_job(v, spec, rng, 4, 4, work)]


# -- runners -------------------------------------------------------------

def run_in_process(job: Job) -> Outcome:
    from dnsurf import cli as dcli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = dcli.main(job.argv)
    except (Exception, SystemExit):  # a crash is a failed job, not a failed run
        rc = None
        err.write(traceback.format_exc())
    return Outcome(rc, out.getvalue(), err.getvalue(), perf_counter() - t0)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(cmd: list[str], root: Path, work: Path) -> Outcome:
    t0 = perf_counter()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=child_env(root), cwd=work,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return Outcome(None, "", f"timed out after {exc.timeout} s", perf_counter() - t0)
    return Outcome(r.returncode, r.stdout, r.stderr, perf_counter() - t0)


def cli_command(job: Job) -> list[str]:
    return [sys.executable, "-m", "dnsurf.cli", *job.argv]


def traced_cli_command(job: Job, root: Path, spans: Path) -> list[str]:
    return [sys.executable, str(root / "perfbench" / "tracing.py"), str(spans), "--", *job.argv]
