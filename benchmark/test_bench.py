"""Tests of the benchmark's own machinery: inputs, tracer and checks.

Run with `PYTHONPATH=src python -m pytest -q benchmark` from the root.
"""

import gc
import sys

import pytest

import artinsplit
import run
from artinsplit import cli
from operations import execute, prepare
from speed import REFERENCE_TASK_S, SpeedProbe
from tracer import PACKAGE, TRACED, Tracer
from workloads import WORKLOADS, cli_ops, labels_ops


def bindings():
    """Every (module, name) of the package bound to one of its callables."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for binding, value in vars(module).items():
            if callable(value) and getattr(value, "__module__", "").startswith(PACKAGE):
                out[(name, binding)] = value
    return out


def small_ops(workload, count):
    """The first `count` inputs of the workload with the fewest edges."""
    ops = WORKLOADS[workload](7)
    return sorted(ops, key=lambda op: len(op.graph["edges"]))[:count]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed(workload):
    first = [op.key for op in WORKLOADS[workload](11)]
    assert first == [op.key for op in WORKLOADS[workload](11)]
    assert len(first) >= 40


def test_seed_changes_generated_inputs():
    assert {op.key for op in cli_ops(1)} != {op.key for op in cli_ops(2)}


def test_seed_only_orders_the_fixed_labels_graphs():
    first, second = labels_ops(1), labels_ops(2)
    assert [op.key for op in first] != [op.key for op in second]
    assert sorted(op.key for op in first) == sorted(op.key for op in second)


def test_speed_probe_scales_to_the_reference_speed_and_keeps_gc_on():
    probe = SpeedProbe()
    probe.sample()
    probe.sample()  # too soon after the first: skipped
    assert len(probe.samples) == 1
    assert probe.scale() == pytest.approx(REFERENCE_TASK_S / probe.samples[0])
    assert gc.isenabled()


def test_traced_and_untraced_outputs_agree():
    ops = small_ops("labels", 4) + small_ops("search", 4) + small_ops("cli", 12)
    prepared = [prepare(artinsplit, op) for op in ops]
    plain = [execute(artinsplit, cli, op, p, {}, False)
             for op, p in zip(ops, prepared)]
    with Tracer() as tracer:
        traced = [execute(artinsplit, cli, op, p, {}, False, tracer)
                  for op, p in zip(ops, prepared)]
    assert all(o.problem is None for o in plain + traced)
    assert [o.digest for o in plain] == [o.digest for o in traced]
    assert tracer.spans


def test_wrappers_are_removed_after_tracing():
    before = bindings()
    with Tracer():
        during = bindings()
    assert bindings() == before
    wrapped = {key for key in before if during[key] is not before[key]}
    # each traced function is wrapped in its own module at least
    for name in TRACED:
        module, attr = name.rsplit(".", 1)
        assert (f"{PACKAGE}.{module}", attr) in wrapped


def test_call_through_an_importers_binding_is_counted():
    g = artinsplit.DefiningGraph.build(
        "abc", [("a", "b", 5, "a"), ("b", "c", 4, "b"), ("a", "c", 4, "c")])
    with Tracer() as tracer:
        tracer.start_op()
        # certify reaches fiber_product only through the name it imported
        artinsplit.certify(g)
        tracer.stop_op()
    totals = tracer.layer_totals()
    assert totals["certify.certify"][0] == 1
    assert totals["fiber.fiber_product"][0] >= 1
    names = {span[0]: TRACED[span[3]] for span in tracer.spans}
    parents = {TRACED[span[3]]: names.get(span[1]) for span in tracer.spans}
    assert parents["fiber.fiber_product"] == "certify.certify"


def test_wrong_output_counts_as_failed():
    op = small_ops("labels", 1)[0]
    out = execute(artinsplit, cli, op, prepare(artinsplit, op),
                  {op.key: "0" * 20}, False)
    assert out.problem == "output differs from the recorded digest"


def test_set_up_again_puts_the_measured_library_back():
    before = {name: sys.modules[name] for name in run.library_modules()}
    try:
        measured = run.Run("labels", 3, 1)
        measured.set_up_again()
        assert sys.modules["artinsplit"] is measured.lib
        assert sys.modules["artinsplit.cli"] is measured.cli
        assert len(measured.setups) == 2
    finally:
        for name in run.library_modules():
            del sys.modules[name]
        sys.modules.update(before)
