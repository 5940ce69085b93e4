"""Spans around the public functions of every dnsurf module.

The tracer replaces each public function of the layer modules, and the two
per-point methods the benchmark follows, with a wrapper that records a span
(name, start, end, parent span, job) in memory.  A function is patched under
every name that binds it in any dnsurf module, so ``geom.dot`` (bound by
``from .mink import dot``) is traced as ``mink.dot``.  Nothing under
``src/`` changes; ``uninstall`` restores every original binding.

Run as a script, this file is the traced child of the ``cli`` workload:

    python3 perfbench/tracing.py SPANS.json -- ARGV...

It times ``import dnsurf.cli`` as the ``import`` span, installs the tracer,
runs ``dnsurf.cli.main(ARGV)``, writes its spans to SPANS.json and exits
with the command's code.  numpy is imported lazily so that it stays inside
the ``import`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("dnum", "mink", "sexpr", "holo", "geom", "canon", "family", "kernels", "cli")

#: Methods traced besides the module-level functions (the per-point path).
METHODS = (("holo", "HoloCurve", "eval_unchecked"), ("canon", "CanonicalChart", "inv"))


def _grid_points(counters, args, kwargs, result):
    counters["geom.grid_quantities.points"] += int(args[1]) * int(args[2])


def _simpson_nodes(counters, args, kwargs, result):
    counters["kernels.cumulative_simpson.nodes"] += args[0].size
    # computed from array sizes: the input samples read plus the output written
    counters["kernels.cumulative_simpson.bytes"] += args[0].nbytes + result.nbytes


def _chart_nodes(counters, args, kwargs, result):
    counters["canon.nodes"] += result.sminus.nodes + result.splus.nodes


#: Counters read at a layer boundary from a traced call's arguments or result.
HOOKS = {
    "geom.grid_quantities": _grid_points,
    "kernels.cumulative_simpson": _simpson_nodes,
    "canon.canonize": _chart_nodes,
}


class Tracer:
    """In-memory spans; span ids are list indices, -1 is 'no parent'."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.counters: Counter[str] = Counter()
        self.job_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._chunks: list[dict] = []
        self._offset = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            self.end[sid] = time.perf_counter()
            self.start[sid] = t0
            self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        end, start, stack, counters = self.end, self.start, self._stack, self.counters
        clock, open_ = time.perf_counter, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every public function of the layer modules where callers find it."""
        mods = {m: importlib.import_module(f"dnsurf.{m}") for m in LAYERS}
        holders = [*mods.values(), importlib.import_module("dnsurf")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            self._patches.append((holder, key, val))
                            setattr(holder, key, traced)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for holder, key, val in reversed(self._patches):
            setattr(holder, key, val)
        self._patches.clear()

    def dump(self) -> dict:
        return {"names": self.names, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counters": self.counters}

    def flush(self):
        """Move the finished spans into compact arrays; call between jobs only."""
        import numpy as np

        assert self._stack == [-1], "flush inside an open span"
        parent = np.asarray(self.parent, dtype=np.int64)
        self._chunks.append({
            "name": np.asarray(self.name, dtype=np.int32), "start": np.asarray(self.start),
            "end": np.asarray(self.end), "job": np.asarray(self.job, dtype=np.int32),
            "parent": np.where(parent >= 0, parent + self._offset, -1),
        })
        self._offset += len(self.name)
        for lst in (self.name, self.start, self.end, self.parent, self.job):
            del lst[:]

    def arrays(self) -> dict:
        """All flushed spans as arrays keyed name, start, end, parent, job."""
        import numpy as np

        self.flush()
        return {k: np.concatenate([c[k] for c in self._chunks]) for k in self._chunks[0]}

    def merge(self, child: dict, parent_sid: int):
        """Append a child process's spans under span parent_sid of this job."""
        offset = len(self.name)
        ids = [self._name_id(n) for n in child["names"]]
        self.name.extend(ids[i] for i in child["name"])
        self.start.extend(child["start"])
        self.end.extend(child["end"])
        self.parent.extend(parent_sid if p < 0 else p + offset for p in child["parent"])
        self.job.extend([self.job_id] * len(child["name"]))
        self.counters.update(child["counters"])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(tr: Tracer) -> tuple[dict[str, tuple[int, float]], float]:
    """(calls, self seconds) per span name, and the summed root-span time.

    A span's self time is its duration minus its children's, so the self
    times of all names add up to the time of the root spans.
    """
    import numpy as np

    sp = tr.arrays()
    dur = sp["end"] - sp["start"]
    has = sp["parent"] >= 0
    child = np.zeros_like(dur)
    np.add.at(child, sp["parent"][has], dur[has])
    k = len(tr.names)
    calls = np.bincount(sp["name"], minlength=k)
    selfs = np.bincount(sp["name"], weights=dur - child, minlength=k)
    stats = {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(tr.names)}
    return stats, float(np.sum(dur[~has]))


def write_spans(tr: Tracer, path):
    import numpy as np

    np.savez_compressed(path, names=np.array(tr.names), **tr.arrays())


def _child_main(argv: list[str]) -> int:
    out, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- ARGV...")
    tr = Tracer()
    with tr.span("import"):
        import dnsurf.cli
    tr.install()
    rc = dnsurf.cli.main(cli_argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tr.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
