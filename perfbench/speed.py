"""A fixed unit of reference work that tracks the host's speed during a run.

The benchmark shares a few cores of a host whose speed drifts: the same job
can take 1.5x as long a minute later, and CPU time moves with wall time, so
the job is not waiting but running slower.  Just before and just after every
timed job and every set-up sample the benchmark runs one reference unit.
Its work never touches dnsurf: scalar float arithmetic in the interpreter,
like the per-point path, and numpy ufuncs on a cache-resident array, like
the grid path.  The mean of the two unit times, over ``NOMINAL_S``, is that
item's slowdown; its wall time is divided by it, so timings and rates read
as they would on a host where one unit takes ``NOMINAL_S``.  Raw values are
reported beside them.  The host's CPUs change speed independently, so the
benchmark pins itself, and with it every child it starts, to one CPU: the
units then run where the job ran, in process or in a child.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

import numpy as np

#: Reference unit time of a nominal host.
NOMINAL_S = 0.010

_SCALAR_STEPS = 20000
_ARRAY = np.linspace(0.0, 1.0, 8192)
_ARRAY_REPS = 60


def pin_to_one_cpu() -> str:
    """Restrict this process and its future children to one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:
        return f"not pinned: {exc}"
    return str(cpu)


def reference_unit() -> float:
    """Seconds taken by one unit of fixed interpreter and numpy work."""
    t0 = perf_counter()
    x, acc = 0.1, 0.0
    for i in range(_SCALAR_STEPS):
        x = 0.5 * x + 0.25 * math.sin(x + i)
        acc += x * x
    for _ in range(_ARRAY_REPS):
        acc += float(np.exp(np.sin(_ARRAY)).sum())
    wall = perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference unit produced a non-finite value")
    return wall


class Speed:
    """Reference units run just before and just after each timed item.

    An item's slowdown is the mean of its two unit times over
    ``NOMINAL_S``: above 1 while the host runs slower than nominal.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.slowdowns: list[float] = []

    def around(self, fn):
        """Call fn between two reference units and return what it returns."""
        before = reference_unit()
        out = fn()
        after = reference_unit()
        self.samples += [before, after]
        self.slowdowns.append((before + after) / (2.0 * NOMINAL_S))
        return out

    def scaled(self, walls: list[float]) -> list[float]:
        """Each item's wall time divided by its slowdown."""
        if len(walls) != len(self.slowdowns):
            raise ValueError(f"{len(walls)} walls for {len(self.slowdowns)} timed items")
        return [w / s for w, s in zip(walls, self.slowdowns)]
