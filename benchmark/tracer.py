"""Per-layer spans for the traced benchmark run, recorded from outside.

The library has no tracing of its own, so the tracer wraps each public
function listed in `TRACED` at every place it is bound: its defining module,
every module that imported it by name (`from .fiber import fiber_product`
binds a second name inside `certify` and `cli`), and the package.  A call
made through any of these names is recorded as a span; the wrappers are put
back to the original functions when the tracer is removed.

Spans stay in memory as (span id, parent span id, operation id, name index,
start ns, end ns) and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "artinsplit"

TRACED = (
    "defining_graph.validate",
    "orientation.find_admissible_orientation",
    "orientation.is_admissible",
    "orientation.oracle_almost_misdirected",
    "horizontal.build_family",
    "horizontal.build_collapsed",
    "horizontal.compute_splitting",
    "multigraph.connected_components",
    "multigraph.blocks",
    "multigraph.is_immersion",
    "multigraph.free_rank",
    "fiber.fiber_product",
    "fiber.monochrome_check",
    "fiber.fill_rank_check",
    "fiber.oppressive_set",
    "certify.certify",
    "cli.main",
)


def _observe_collapsed(counters: Counter, result, error) -> None:
    if error is None:
        counters["xbar_vertices"] += len(result.graph.vertices)


def _observe_fiber(counters: Counter, result, error) -> None:
    if error is not None:
        return
    counters["product_vertices"] += len(result.graph.vertices)
    counters["product_edges"] += len(result.graph.edges)
    counters["product_components"] += len(result.components)
    counters["useful_components"] += sum(
        1 for kind in result.classification if kind != "tree"
    )


def _observe_search(counters: Counter, result, error) -> None:
    if error is not None:
        if type(error).__name__ == "SearchSpaceError":
            counters["search_refused"] += 1
    elif result is None:
        counters["search_exhausted"] += 1
    else:
        counters["search_found"] += 1


# size and waste counters, read from the return values of these functions
OBSERVERS = {
    "horizontal.build_collapsed": _observe_collapsed,
    "fiber.fiber_product": _observe_fiber,
    "orientation.find_admissible_orientation": _observe_search,
}


class Tracer:
    """Install with `with Tracer() as t:`, as often as needed; spans are
    recorded only between `start_op()` and `stop_op()`, so the benchmark's
    own output checks, which call into the library too, stay out of the
    trace."""

    def __init__(self):
        self.names = TRACED
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.counters: Counter = Counter()
        self.recording = False
        self.op_id = 0
        self._stack: list[int] = [0]
        self._next_span = 1
        self._plan: list[tuple[object, str, object, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        if not self._plan:
            self._plan = self._bindings()
        for module, binding, _, wrapper in self._plan:
            setattr(module, binding, wrapper)

    def remove(self) -> None:
        for module, binding, original, _ in self._plan:
            setattr(module, binding, original)

    def _bindings(self) -> list:
        """(module, name, original, wrapper) for every binding to wrap."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        plan = []
        for index, name in enumerate(self.names):
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(index, original, OBSERVERS.get(name))
            for module in modules:
                for binding, value in vars(module).items():
                    if value is original:
                        plan.append((module, binding, original, wrapper))
        return plan

    def start_op(self) -> None:
        self.op_id += 1
        self.recording = True

    def stop_op(self) -> None:
        self.recording = False

    def _wrap(self, index: int, fn, observe):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._next_span
            self._next_span += 1
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result, error = fn(*args, **kwargs), None
            except Exception as exc:
                result, error = None, exc
            spans.append((span, parent, self.op_id, index, start, clock()))
            stack.pop()
            if observe is not None:
                observe(self.counters, result, error)
            if error is not None:
                raise error
            return result

        return wrapper

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{name: (calls, self seconds)} for every traced name.

        Self time is a span's duration minus the durations of the spans it
        directly caused.  Calls run one after another on one thread, so the
        children of a span never overlap.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for span, parent, _, _, start, end in self.spans:
            child_ns[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for span, _, _, index, start, end in self.spans:
            calls[index] += 1
            self_ns[index] += end - start - child_ns[span]
        return {
            name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(self.names)
        }

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**meta, "names": list(self.names),
                       "span_fields": ["span", "parent", "op", "name",
                                       "start_ns", "end_ns"],
                       "spans": self.spans}, f)
