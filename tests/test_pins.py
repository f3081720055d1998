"""The one place where recorded outputs are pinned, each test failing once
with every moved key grouped by command.

* Every default-seed benchmark operation has its digest in
  `benchmark/expected.json`; re-record with `benchmark/run.py --record`.
* Every run of a seeded CLI fuzz has its digest in the ledger
  `pinned_outputs.json`, rebuilt in-process and under two fixed hash
  seeds; re-record by copying the fresh ledger that the failing test
  names over it.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import artinsplit
from artinsplit import cli
from generators import fuzz_rounds

BENCH = Path(__file__).resolve().parents[1] / "benchmark"
LEDGER = Path(__file__).with_name("pinned_outputs.json")


def moved(recorded, fresh, command):
    """The keys whose fresh value differs from the recorded one, or that
    only one side holds, grouped by `command(key)`."""
    groups = defaultdict(list)
    for key in sorted(recorded.keys() | fresh.keys()):
        if recorded.get(key) != fresh.get(key):
            groups[command(key)].append(key)
    return groups


def listing(groups):
    return "".join(f"\n{command}: {len(keys)}\n    " + "\n    ".join(keys)
                   for command, keys in sorted(groups.items()))


def check_benchmark_outputs(monkeypatch, workload):
    """Replay each default-seed op of `workload` once: its output digest,
    then the benchmark's own re-checks of what it claims.  Fail once,
    listing every moved key and every failed check; return the ops
    replayed."""
    monkeypatch.syspath_prepend(str(BENCH))
    from operations import execute, prepare
    from workloads import DEFAULT_SEED, WORKLOADS

    recorded = json.loads((BENCH / "expected.json").read_text())[workload]
    ops = WORKLOADS[workload](DEFAULT_SEED)
    fresh, commands, failed = {}, {}, defaultdict(list)
    for op in ops:
        outcome = execute(artinsplit, cli, op, prepare(artinsplit, op),
                          recorded, need_digest=True)
        fresh[op.key] = outcome.digest
        commands[op.key] = " ".join(op.argv) or op.kind
        if outcome.problem and outcome.digest == recorded.get(op.key):
            failed[commands[op.key]].append(f"{op.key}: {outcome.problem}")
    assert len(ops) == len(fresh)
    groups = moved(recorded, fresh, lambda key: commands.get(key, "no op"))
    if groups or failed:
        pytest.fail(f"{sum(map(len, groups.values()))} of {len(ops)} "
                    f"{workload} outputs moved:{listing(groups)}\n"
                    f"failed their checks:{listing(failed)}", pytrace=False)
    return ops


@pytest.mark.parametrize("workload, count", [
    ("labels", 83), ("search", 256), ("cli", 1170)])
def test_benchmark_outputs_match_their_recorded_digests(
        workload, count, monkeypatch):
    # every default-seed op of the workload; this pins R7's witness cycles
    # to the byte.  Only the cli workload runs commands: 220 each of
    # `check`, `split` and `export`, and some `fiber --oppressive`
    ops = check_benchmark_outputs(monkeypatch, workload)
    assert len(ops) == count
    commands = [op.argv for op in ops if op.kind == "cli"]
    assert Counter(argv[0] for argv in commands
                   if argv[0] in ("check", "split", "export")) == (
        dict.fromkeys(("check", "split", "export"), 220)
        if workload == "cli" else {})
    assert any(argv[0] == "fiber" and "--oppressive" in argv
               for argv in commands) == (workload == "cli")


def fuzz_ledger(run_cli):
    """Exit code, stdout and stderr of every command in every format on
    each text of 150 seeded rounds, one 12-hex sha256 prefix per run under
    `<round> <input kind> <format> <argv>`."""
    fresh = {}
    for round_, texts, argvs in fuzz_rounds(random.Random(10), top_label=7):
        for argv in argvs:
            for kind, text in zip(("graph", "malformed"), texts):
                code, out, err = run_cli(argv, text)
                key = f"{round_:03d} {kind} {argv[-1]} {' '.join(argv[:-2])}"
                assert key not in fresh, key
                fresh[key] = hashlib.sha256(
                    f"{code}\0{out}\0{err}\0".encode()).hexdigest()[:12]
    return fresh


def check_ledger(fresh, tmp_path, where=""):
    """Fail once, listing every run of `fresh` that moved from the ledger."""
    assert len(fresh) > 3000
    groups = moved(json.loads(LEDGER.read_text()), fresh,
                   lambda key: key.split(" ", 3)[3])
    if groups:
        written = tmp_path / LEDGER.name
        written.write_text(json.dumps(fresh, indent=0, sort_keys=True) + "\n")
        pytest.fail(f"{sum(map(len, groups.values()))} of {len(fresh)} runs "
                    f"moved{where}; copy {written} over {LEDGER} to "
                    f"re-record. Moved:{listing(groups)}", pytrace=False)


def test_fuzz_outputs_match_the_ledger(run_cli, tmp_path):
    check_ledger(fuzz_ledger(run_cli), tmp_path)


def test_fuzz_outputs_match_the_ledger_under_fixed_hash_seeds(tmp_path):
    # the ledger rebuilt in two fresh interpreters, under PYTHONHASHSEED 0
    # and 1, side by side: an output that follows the order of a set of
    # strings moves under one of them, where a run under a random seed
    # would only make the pin flaky
    here = Path(__file__).parent
    src = Path(artinsplit.__file__).resolve().parents[1]
    script = ("import json, sys; from conftest import run_main; "
              "from test_pins import fuzz_ledger; "
              "json.dump(fuzz_ledger(run_main), sys.stdout)")
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", script], cwd=here, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=os.pathsep.join(map(str, (src, here)))))
        for seed in ("0", "1")
    }
    for seed, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        written = tmp_path / f"hashseed{seed}"
        written.mkdir()
        check_ledger(json.loads(out), written,
                     f" under PYTHONHASHSEED={seed}")
