#!/usr/bin/env python3
"""dnsurf benchmark: seeded sweep, chart and cli workloads with oracle checks.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; it measures ``src/dnsurf`` of that
checkout and refuses to run against any other copy.  Each workload is a
closed loop with one client and no threads: the next job starts when the
previous one has been checked.  Jobs run until ``--seconds`` of job wall
time has been spent and the last round of the workload's job mix is whole;
the oracle checks between jobs are not timed.

``--trace 0`` prints the end-to-end metrics, each job's time scaled by the
host speed that a reference unit of work measures around it (speed.py).
``--trace 1`` runs every job twice, untraced and traced in alternating
order, and prints per-layer metrics (per traced job) from spans recorded
around every public dnsurf function, plus ``trace.overhead_ratio``.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  Run details,
the environment and (traced) the spans go to ``perfbench/_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import jobs
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
TAIL_BEYOND = 10

#: Reported with --trace 0, in this order; BENCHMARK.json lists the same.
END_TO_END = ("setup_s", "job_s.p50", "job_s.tail", "jobs_per_s", "points_per_s", "peak_rss_mb")

#: Reported with --trace 1.  Self times of layers that one of the workloads
#: never calls (grid, quadrature, per-point, family) read 0 there on every
#: run, so they are printed and saved but left out of this list.
PER_LAYER = (
    "import.dnsurf_s", "import.scipy_s", "import.numpy_s",
    "cli.main.calls", "cli.self_s", "cli.bytes_out", "cli.load_spec.self_s",
    "sexpr.parse.calls", "sexpr.parse.self_s",
    "geom.make_surface.calls", "geom.make_surface.self_s", "family.calls",
    "sexpr.eval_expr.calls", "sexpr.eval_expr.self_s",
    "holo.HoloCurve.eval_unchecked.calls", "holo.HoloCurve.eval_unchecked.self_s",
    "geom.grid_quantities.calls", "geom.grid_quantities.points",
    "geom.point_data.calls", "geom.hyperbola_at.calls", "geom.classify_point.calls",
    "canon.CanonicalChart.inv.calls", "mink.dot.calls", "mink.normsq.calls",
    "mink.wedge_normsq.calls", "canon.canonize.calls", "canon.nodes", "canon.ladder_efficiency",
    "kernels.cumulative_simpson.calls", "kernels.cumulative_simpson.bytes",
    "pointwise.self_s", "trace.overhead_ratio",
)

#: The per-point stage: every span on the scalar per-point path.
POINTWISE = ("geom.point_data", "geom.hyperbola_at", "geom.classify_point",
             "canon.CanonicalChart.inv", "holo.HoloCurve.eval_unchecked")


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# -- environment and set-up ----------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import dnsurf
    from dnsurf import kernels

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "backend": kernels.BACKEND,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed, "commit": git_commit(), "dnsurf": dnsurf.__file__,
    }


def setup_samples(env: dict, n: int, host: speed.Speed) -> list[float]:
    """Seconds from spawning a fresh interpreter to `import dnsurf` done.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux.
    Each child also reports which dnsurf it imported.  Reference units run
    around each sample.
    """
    code = "import dnsurf, time; print(time.perf_counter()); print(dnsurf.__file__)"

    def spawn():
        t0 = time.perf_counter()
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=jobs.child_env(ROOT), cwd=ROOT, timeout=jobs.CHILD_TIMEOUT_S)
        return t0, r

    out = []
    for _ in range(n):
        t0, r = host.around(spawn)
        if r.returncode != 0:
            fail(f"fresh interpreter could not import dnsurf:\n{r.stderr}")
        stamp, path = r.stdout.split()
        if Path(path).resolve().parent != (SRC / "dnsurf").resolve():
            fail(f"child imported dnsurf from {path}, not from {SRC}")
        env["dnsurf_child"] = path
        out.append(float(stamp) - t0)
    return out


def import_times() -> dict[str, float]:
    """Median cumulative `-X importtime` seconds of dnsurf, scipy and numpy."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        r = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dnsurf"],
                           capture_output=True, text=True, env=jobs.child_env(ROOT), cwd=ROOT,
                           timeout=jobs.CHILD_TIMEOUT_S)
        if r.returncode != 0:
            fail(f"-X importtime run failed:\n{r.stderr}")
        samples.append(parse_importtime(r.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def parse_importtime(text: str) -> dict[str, float]:
    """Sum the cumulative time of each package's outermost imports.

    Lines come children first, indented two spaces per level, so walking
    them in reverse meets every parent before its children.
    """
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(parts[1])))
    totals = {"dnsurf": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[str] = []
    for depth, name, cum_us in reversed(rows):
        del stack[depth:]
        top = name.split(".")[0]
        parent_top = stack[-1].split(".")[0] if stack else None
        if top in totals and parent_top != top:
            totals[top] += cum_us * 1e-6
        stack.append(name)
    return totals


# -- measurement ---------------------------------------------------------

class Tally:
    """Attempted and failed jobs, and wall times of the timed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.points = 0
        self.errors: list[str] = []

    def record(self, job, res, timed: bool = True):
        errs = job.evaluate(res)
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(errs[: max(0, 20 - len(self.errors))])
        elif timed:
            self.points += job.points
        if timed:
            self.walls.append(res.wall)


def tail(walls: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND jobs beyond it.

    With fewer than TAIL_BEYOND + 1 jobs there is none; the maximum is
    reported as percentile 100 instead.
    """
    w, n = sorted(walls), len(walls)
    if n <= TAIL_BEYOND:
        return 100, w[-1]
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    return p, w[math.ceil(p * n / 100) - 1]


def plain_runner(workload: str, work: Path):
    if workload in jobs.IN_PROCESS:
        return jobs.run_in_process
    return lambda job: jobs.run_child(jobs.cli_command(job), ROOT, work)


def plain_run(workload: str, stream, seconds: float, work: Path,
              seed: int) -> tuple[Tally, dict, speed.Speed]:
    run = plain_runner(workload, work)
    tally = Tally()
    if workload in jobs.IN_PROCESS:
        for job in jobs.warmup_jobs(np.random.default_rng([seed, 1]), work):
            tally.record(job, run(job), timed=False)
    host = speed.Speed()
    busy = 0.0
    while busy < seconds or len(tally.walls) % jobs.ROUND[workload]:
        job = next(stream)
        job.clear_outputs()
        res = host.around(lambda: run(job))
        busy += res.wall
        tally.record(job, res)
    who = resource.RUSAGE_SELF if workload in jobs.IN_PROCESS else resource.RUSAGE_CHILDREN
    raw, walls = tally.walls, host.scaled(tally.walls)
    n, scaled_busy = len(walls), sum(walls)
    pct, tail_s = tail(walls)
    note = f"raw {{:.6g}}, mean host slowdown {statistics.fmean(host.slowdowns):.4f}"
    metrics = {
        "job_s.p50": (statistics.median(walls), "s",
                      f"median of {n} timed jobs; " + note.format(statistics.median(raw))),
        "job_s.tail": (tail_s, "s", f"p{pct} of {n} jobs; " + note.format(tail(raw)[1])),
        "jobs_per_s": (n / scaled_busy, "1/s",
                       f"over {busy:.1f} s of job wall time; " + note.format(n / busy)),
        "points_per_s": (tally.points / scaled_busy, "1/s", "CSV rows, OBJ vertices, "
                         "canonical-grid rows; " + note.format(tally.points / busy)),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB",
                        "benchmark process" if who == resource.RUSAGE_SELF else "largest child"),
    }
    return tally, metrics, host


def traced_run(workload: str, stream, seconds: float, work: Path, seed: int,
               imports: dict[str, float]) -> tuple[Tally, dict]:
    in_proc = workload in jobs.IN_PROCESS
    plain = plain_runner(workload, work)
    child_spans = work / "child-spans.json"
    tr = tracing.Tracer()
    tally = Tally()
    if in_proc:
        for job in jobs.warmup_jobs(np.random.default_rng([seed, 1]), work):
            tally.record(job, plain(job), timed=False)
    busy = plain_s = traced_s = 0.0
    bytes_out = 0
    n = 0
    while busy < seconds:
        job = next(stream)
        # alternate which copy runs first so warm caches favour neither
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            job.clear_outputs()
            if not traced:
                res = plain(job)
                plain_s += res.wall
            else:
                tr.job_id = n
                child_spans.unlink(missing_ok=True)
                if in_proc:
                    tr.install()
                try:
                    with tr.span("job") as sid:
                        res = (jobs.run_in_process(job) if in_proc else jobs.run_child(
                            jobs.traced_cli_command(job, ROOT, child_spans), ROOT, work))
                finally:
                    tr.uninstall()
                if child_spans.exists():
                    tr.merge(json.loads(child_spans.read_text()), sid)
                tr.flush()
                traced_s += res.wall
                bytes_out += job.bytes_out(res)
            busy += res.wall
            tally.record(job, res, timed=traced)
        n += 1
    tracing.write_spans(tr, work / "spans.npz")
    stats, root_s = tracing.self_times(tr)
    return tally, layer_metrics(stats, root_s, n, bytes_out, traced_s / plain_s, tr.counters,
                                imports)


def layer_metrics(stats, root_s: float, n: int, bytes_out: int, overhead: float, counters,
                  imports: dict[str, float]) -> dict:
    """Per-traced-job layer metrics and the per-layer table."""

    def calls(name):
        return stats.get(name, (0, 0.0))[0] / n

    def self_s(*names):
        return sum(stats.get(k, (0, 0.0))[1] for k in names) / n

    def of_layer(layer):
        return [k for k in stats if tracing.layer_of(k) == layer]

    m = {}
    for key in ("dnsurf", "scipy", "numpy"):
        m[f"import.{key}_s"] = (imports[key], "s", "-X importtime cumulative, median")
    m["cli.main.calls"] = (calls("cli.main"), "calls/job", "")
    m["cli.self_s"] = (self_s(*[k for k in of_layer("cli") if k != "cli.load_spec"]), "s/job",
                       "cli spans minus traced children, load_spec excluded: argparse, format, write")
    m["cli.bytes_out"] = (bytes_out / n, "bytes/job", "stdout plus files written")
    family = of_layer("family")
    m["family.calls"] = (sum(calls(k) for k in family), "calls/job", "")
    m["family.self_s"] = (self_s(*family), "s/job", "")
    for name in ("cli.load_spec", "sexpr.parse", "geom.make_surface", "sexpr.eval_expr",
                 "holo.HoloCurve.eval_unchecked", "geom.grid_quantities", "geom.point_data",
                 "geom.hyperbola_at", "geom.classify_point", "canon.CanonicalChart.inv",
                 "mink.dot", "mink.normsq", "mink.wedge_normsq", "canon.canonize",
                 "canon.verify_canonical", "kernels.cumulative_simpson"):
        m[f"{name}.calls"] = (calls(name), "calls/job", "")
        m[f"{name}.self_s"] = (self_s(name), "s/job", "")
    m["geom.grid_quantities.points"] = (counters["geom.grid_quantities.points"] / n, "points/job", "")
    m["canon.nodes"] = (counters["canon.nodes"] / n, "nodes/job", "final ladder round, both axes")
    simpson = counters["kernels.cumulative_simpson.nodes"]
    m["canon.ladder_efficiency"] = (counters["canon.nodes"] / simpson if simpson else 0.0, "ratio",
                                    "final-round nodes / all nodes evaluated (0: no canonize)")
    m["kernels.cumulative_simpson.bytes"] = (counters["kernels.cumulative_simpson.bytes"] / n,
                                             "bytes/job", "computed from array sizes")
    m["pointwise.self_s"] = (self_s(*POINTWISE), "s/job", "per-point stage: " + ", ".join(POINTWISE))
    m["trace.overhead_ratio"] = (overhead, "ratio", "traced / untraced job wall time")
    m["trace.job_s"] = (root_s / n, "s/job", f"traced job wall time, {n} traced jobs")

    layers = {}
    for name, (c, s) in stats.items():
        lay = layers.setdefault(tracing.layer_of(name), [0, 0.0])
        lay[0] += c
        lay[1] += s
    return {"metrics": m, "layers": {k: (c / n, s / n) for k, (c, s) in layers.items()},
            "root_s": root_s / n, "jobs": n}


# -- report --------------------------------------------------------------

def print_table(metrics: dict):
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit:<10} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "chart", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "dnsurf" / "__init__.py").is_file():
        fail(f"no dnsurf package under {SRC}; run from the root of a dnsurf checkout")
    sys.path.insert(0, str(SRC))
    import dnsurf

    if Path(dnsurf.__file__).resolve().parent != (SRC / "dnsurf").resolve():
        fail(f"imported dnsurf from {dnsurf.__file__}, not from {SRC}")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.seed)
    env["pinned_cpu"] = speed.pin_to_one_cpu()
    # the traced run reports no setup_s: one child only checks the import path
    setup_host = speed.Speed()
    setup = setup_samples(env, 1 if args.trace else SETUP_SAMPLES, setup_host)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env  " + "  ".join(f"{k} {v}" for k, v in env.items()))

    stream = jobs.WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
    job_host = speed.Speed()  # stays empty in a traced run, which reports no timings
    if args.trace:
        tally, res = traced_run(args.workload, stream, args.seconds, work, args.seed,
                                import_times())
        metrics = res["metrics"]
        layer_sum = sum(s for _, s in res["layers"].values())
        sums_ok = math.isclose(layer_sum, res["root_s"], rel_tol=1e-9)
        print(f"layers (per traced job, {res['jobs']} traced jobs)      calls        self_s")
        for layer, (c, s) in sorted(res["layers"].items(), key=lambda kv: -kv[1][1]):
            print(f"  {layer:<40} {c:>12.1f} {s:>13.6f}")
        print(f"  {'sum of self times':<40} {'':>12} {layer_sum:>13.6f}"
              f"   traced job wall {res['root_s']:.6f}  ({'equal' if sums_ok else 'MISMATCH'})")
        print("per-layer metrics")
        print_table(metrics)
        reported = PER_LAYER
    else:
        tally, metrics, job_host = plain_run(args.workload, stream, args.seconds, work, args.seed)
        metrics = {"setup_s": (statistics.median(setup_host.scaled(setup)), "s",
                               f"median of {len(setup)} fresh interpreters; raw "
                               f"{statistics.median(setup):.6g}, mean host slowdown "
                               f"{statistics.fmean(setup_host.slowdowns):.4f}"),
                   **metrics}
        sums_ok = True
        print("end-to-end metrics")
        print_table(metrics)
        reported = END_TO_END
    fail_ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':<40} {fail_ratio:>16.6g} {'ratio':<10} "
          f"{tally.failed} of {tally.attempted} jobs failed")
    for err in tally.errors:
        print(f"  FAILED {err}")

    (work / "result.json").write_text(json.dumps({
        "args": vars(args), "env": env, "setup_samples": setup, "attempted": tally.attempted,
        "failed": tally.failed, "errors": tally.errors, "job_walls": tally.walls,
        "host_samples": {"setup": setup_host.samples, "jobs": job_host.samples},
        "metrics": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in metrics.items()},
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0 and sums_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
