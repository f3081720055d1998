"""The machine's speed during a run, taken from a fixed pure-Python task.

The reference machine is a shared virtual machine whose speed moves by a
quarter and more between runs a minute apart, for every workload at once.
So the timed loop runs `reference_task` between operations, never inside
one, and the run reports its times at the reference speed: each time is
multiplied by `SpeedProbe.scale()`, the ratio of `REFERENCE_TASK_S` to the
mean time the task took during the run.  The task uses none of the
library's code, so a change to the library cannot move the scale.
README.md ("Steadiness") gives the measurements behind this.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# the task's mean time at the reference speed, chosen near its mean on the
# reference machine; a constant, so that scaled times compare across commits
REFERENCE_TASK_S = 1.25e-3
# run the task after an operation once this long has passed since it last
# ran, so that the samples spread over the run's time
EVERY_S = 0.005

_rng = random.Random(5)
_NODES = [f"n{i}" for i in range(300)]
_EDGES = [(_rng.choice(_NODES), _rng.choice(_NODES)) for _ in range(450)]


def reference_task() -> int:
    """Union-find over signed vertex lifts, then a depth-first search, on a
    fixed graph with string vertices: the library's kind of work, done
    without its code."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    cycles = 0
    for u, v in _EDGES:
        a, b = find(("+", u)), find(("-", v))
        if a != b:
            parent[a] = b
        else:
            cycles += 1
    adjacent: dict = {}
    for u, v in _EDGES:
        adjacent.setdefault(u, set()).add(v)
        adjacent.setdefault(v, set()).add(u)
    seen: set = set()
    order = []
    for start in sorted(adjacent):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            order.append(x)
            for y in sorted(adjacent[x]):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return cycles + len(order)


class SpeedProbe:
    """Samples of `reference_task`'s time, taken between operations."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the task once, unless it ran less than EVERY_S ago.  The
        garbage collector is off meanwhile, so the task does not pay for
        the operations' garbage; that stays with the next operation."""
        if time.perf_counter() - self._last < EVERY_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_task()
            self._last = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(self._last - start)

    def scale(self) -> float:
        """The factor that takes a time measured in this run to the
        reference speed: below 1 when the machine ran slow."""
        return REFERENCE_TASK_S / statistics.fmean(self.samples)
