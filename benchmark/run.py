"""The artinsplit benchmark: seeded workloads in a closed loop on one thread.

    python3 benchmark/run.py --workload labels --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all          # each in a fresh process
    python3 benchmark/run.py --record                # rewrite expected.json

Run from the root of a checkout; the library is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  README.md explains
the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".bench_out"

from operations import execute, prepare  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# set-ups per untimed run: one before the timed loop, the rest spread
# evenly over it, so their median sees the same drift of the machine's speed
# as the operations do
SETUP_REPEATS = 11
# at least ten samples beyond the 90th percentile
MIN_SAMPLES = 100
MAX_FAILURES_SHOWN = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class SetupError(RuntimeError):
    """The checkout does not hold the library this benchmark measures."""


def library_modules() -> list[str]:
    return [name for name in sys.modules
            if name == "artinsplit" or name.startswith("artinsplit.")]


def setup(workload: str, seed: int):
    """Import the library afresh and generate the workload's inputs.

    Returns (seconds taken, package, cli module, [(op, prepared input)]).
    """
    for name in library_modules():
        del sys.modules[name]
    start = time.perf_counter()
    lib = importlib.import_module("artinsplit")
    cli = importlib.import_module("artinsplit.cli")
    items = [(op, prepare(lib, op)) for op in WORKLOADS[workload](seed)]
    seconds = time.perf_counter() - start
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"artinsplit was imported from {lib.__file__}, "
                         f"not from {SRC}")
    return seconds, lib, cli, items


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def more_passes(passes: int, elapsed: float, seconds: float) -> bool:
    """Whether to start another whole pass: only while the run would end
    nearer to `seconds` with it than without it."""
    return passes == 0 or elapsed + elapsed / passes / 2 < seconds


class Run:
    """One workload in one process: set-up, warm-up, then whole passes over
    the inputs for about `seconds`.  Every pass runs every input once, so
    each run measures the same mix of work however long its passes take."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        if not (SRC / "artinsplit" / "__init__.py").is_file():
            raise SetupError(f"no library source under {SRC}")
        sys.path.insert(0, str(SRC))
        took, self.lib, self.cli, self.items = setup(workload, seed)
        self.setups = [took]
        self.expected = json.loads(EXPECTED.read_text())[workload]
        self.need_digest = seed == DEFAULT_SEED
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op, prepared, tracer=None):
        out = execute(self.lib, self.cli, op, prepared, self.expected,
                      self.need_digest, tracer)
        self.attempted += 1
        if out.problem is not None:
            self.failures.append(f"{op.argv or op.kind} {op.text}: {out.problem}")
        return out

    def set_up_again(self) -> None:
        """Time one more set-up in a throwaway import, then put back the
        modules the run measures and collect the throwaway's garbage."""
        kept = {name: sys.modules[name] for name in library_modules()}
        self.setups.append(setup(self.workload, self.seed)[0])
        for name in library_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()

    def warm_up(self) -> None:
        op, prepared = self.items[0]
        execute(self.lib, self.cli, op, prepared, {}, False)
        gc.collect()

    def measure(self) -> tuple[dict, dict]:
        """Untraced passes; returns (metrics, run facts)."""
        self.warm_up()
        latencies: list[float] = []
        passes = 0
        every = self.seconds / SETUP_REPEATS
        next_setup = every
        probe = SpeedProbe()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        probe.sample()
        while (len(latencies) < MIN_SAMPLES
               or more_passes(passes, time.perf_counter() - wall0, self.seconds)):
            for op, prepared in self.items:
                latencies.append(self.run_op(op, prepared).seconds)
                probe.sample()
                if (len(self.setups) < SETUP_REPEATS
                        and time.perf_counter() - wall0 >= next_setup):
                    self.set_up_again()
                    next_setup += every
            passes += 1
        while len(self.setups) < SETUP_REPEATS:
            self.set_up_again()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        latencies.sort()
        measured = {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
            "setup_s": statistics.median(self.setups),
        }
        # every time at the reference speed; see speed.py
        scale = probe.scale()
        metrics = {
            "ops_per_s": measured["ops_per_s"] / scale,
            "latency_p50_ms": measured["latency_p50_ms"] * scale,
            "latency_p90_ms": measured["latency_p90_ms"] * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": measured["setup_s"] * scale,
        }
        facts = {"passes": passes, "samples": len(latencies),
                 "busy_s": sum(latencies), "wall_s": wall, "cpu_s": cpu,
                 "speed_samples": len(probe.samples), "speed_scale": scale}
        facts.update({f"measured_{name}": value
                      for name, value in measured.items()})
        return metrics, facts

    def measure_traced(self) -> tuple[dict, dict]:
        """Passes in which every input runs twice in a row, traced and
        untraced, in alternating order.  Back-to-back runs of one input see
        the same machine, so their difference is the tracer's cost even
        while the machine's speed drifts."""
        self.warm_up()
        tracer = Tracer()
        passes = 0
        overhead = 0.0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while more_passes(passes, time.perf_counter() - wall0, self.seconds):
            for i, (op, prepared) in enumerate(self.items):
                plain_first = (i + passes) % 2 == 1
                if plain_first:
                    plain = self.run_op(op, prepared)
                with tracer:
                    traced = self.run_op(op, prepared, tracer)
                if not plain_first:
                    plain = self.run_op(op, prepared)
                overhead += traced.seconds - plain.seconds
                if plain.digest != traced.digest:
                    self.failures.append(f"{op.argv or op.kind} {op.text}: "
                                         "traced output differs from untraced")
            passes += 1
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        layers = tracer.layer_totals()
        metrics: dict = {}
        for name, (calls, self_s) in layers.items():
            metrics[f"{name}.calls"] = calls / passes
            metrics[f"{name}.self_s"] = self_s / passes
        metrics["trace.overhead_s"] = overhead / passes
        counts = tracer.counters
        collapsed = layers["horizontal.build_collapsed"][0]
        products = layers["fiber.fiber_product"][0]
        metrics["horizontal.xbar_vertices"] = (
            counts["xbar_vertices"] / collapsed if collapsed else 0.0)
        for size in ("vertices", "edges", "components"):
            metrics[f"fiber.product_{size}"] = (
                counts[f"product_{size}"] / products if products else 0.0)
        metrics["fiber.useful_component_ratio"] = (
            counts["useful_components"] / counts["product_components"]
            if counts["product_components"] else 0.0)
        for outcome in ("found", "exhausted", "refused"):
            metrics[f"orientation.search_{outcome}"] = (
                counts[f"search_{outcome}"] / passes)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{self.workload}-seed{self.seed}.json"
        tracer.write(path, {"workload": self.workload, "seed": self.seed,
                            "traced_passes": passes})
        facts = {"passes": passes, "wall_s": wall, "cpu_s": cpu,
                 "spans": len(tracer.spans), "trace_file": str(path)}
        return metrics, facts


def units_for(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".self_s") or name == "trace.overhead_s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def report(workload: str, seed: int, run: Run, metrics: dict, facts: dict) -> dict:
    failed = len(run.failures)
    print(f"workload {workload}  seed {seed}  "
          + "  ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in facts.items()))
    print(f"  cpu/wall {facts['cpu_s'] / facts['wall_s']:.3f} "
          "(well below 1 means the machine was busy with other work)")
    for name, value in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {units_for(name)}")
    print(f"  {'failed_frac':<50} {failed / run.attempted:>14.6g} "
          f"(of {run.attempted} operations)")
    for line in run.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_for(name)}
                    for name, value in metrics.items()},
    }


def record() -> None:
    """Write the output digest of every input of the default seed.  An
    input is recorded only when its output passes the outside checks."""
    sys.path.insert(0, str(SRC))
    expected = {}
    for workload in WORKLOADS:
        _, lib, cli, items = setup(workload, DEFAULT_SEED)
        digests = {}
        for op, prepared in items:
            out = execute(lib, cli, op, prepared, {}, False)
            if out.problem is not None:
                raise SystemExit(f"{workload} {op.argv} {op.text}: {out.problem}")
            digests[op.key] = out.digest
        expected[workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} inputs recorded")
    EXPECTED.write_text(json.dumps(expected, indent=0) + "\n")


def run_all(seed: int, seconds: int, trace: int) -> None:
    """Every workload, each in a fresh process so peak RSS is its own."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} exited with {proc.returncode}")
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the default seed")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return 0
    try:
        run = Run(args.workload, args.seed, max(1, args.seconds))
    except (SetupError, ImportError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, facts = run.measure_traced()
    else:
        metrics, facts = run.measure()
    print(json.dumps(report(args.workload, args.seed, run, metrics, facts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
