"""Tests of the benchmark's own code: span arithmetic, unwrapping, the gate.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

import sys

import numpy as np
import pytest

import gate
import spans
import worker

import kreinspace as ks
from kreinspace import harness, serialize  # noqa: F401 - every wrapped module loaded


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, request=0)


def test_self_time_on_synthetic_tree():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
        _span("b", 7.5, 8.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([4.5, 2.0, 1.0, 2.0, 0.5])
    table = spans.summarize(tree)
    assert table["b"] == pytest.approx(
        {"calls": 2, "total_s": 2.5, "self_s": 2.5, "failed": 0}
    )
    assert table["root"]["total_s"] == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 6.0, 0),
        _span("z", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.split(".")[0] == "kreinspace"
        for attr, value in vars(mod).items()
    }


def test_traced_run_restores_every_wrapped_attribute():
    import scipy.linalg

    before = _bindings()
    sylvester = scipy.linalg.solve_sylvester
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "kreinspace"]
    recorder = worker.layer_recorder(spans, modules)
    spec = harness.InstanceSpec(3, 3, margin=0.0, seed=5)
    inst = worker.Instance(spec, harness.random_dissipative(spec), None)
    inst.k_ref = gate.reference_k(inst.a)
    with recorder.installed():
        original = before[("kreinspace.numerics", "operator_norm")]
        assert ks.numerics.operator_norm is not original
        assert ks.blocks.operator_norm is ks.numerics.operator_norm
        record = worker.attempt(ks, gate, worker.run_suite_instance, inst)
    assert record["failed"] == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert scipy.linalg.solve_sylvester is sylvester
    metrics = worker.layer_metrics(spans, recorder, traced=1)
    for mod, fns in worker.TARGETS.items():
        assert metrics[f"{mod}.{fns[0]}.calls"] > 0
    assert metrics["solver.solve_theorem.calls"] == 1
    assert metrics["solver.cells"] == metrics["solver.cells_quadrature"] + metrics[
        "solver.cells_schur"
    ]


def test_gate_rejects_k_moved_by_1e_6():
    spec = harness.InstanceSpec(4, 3, margin=0.1, seed=11)
    a = harness.random_dissipative(spec)
    k_ref = gate.reference_k(a)
    k = ks.solve_theorem(a).k.matrix
    assert gate.failed_checks(a, k, True, k_ref) == []
    moved = k.copy()
    moved[1, 2] += 1e-6
    assert "reference" in gate.failed_checks(a, moved, True, k_ref)
    assert gate.failed_checks(a, k, True, None) == ["reference"]
    assert gate.failed_checks(a, k, False, k_ref) == ["maximal"]


def test_digest_is_bitwise():
    pairs = [[[0.5, -0.25], [1.0, 0.0]]]
    nudged = [[[0.5, np.nextafter(-0.25, 0.0)], [1.0, 0.0]]]
    assert gate.digest(pairs) == gate.digest([[[0.5, -0.25], [1.0, 0.0]]])
    assert gate.digest(pairs) != gate.digest(nudged)


def test_schedule_depends_on_seed_only_through_matrices():
    for workload in worker.WORKLOADS:
        a, b = worker.schedule(workload, 0), worker.schedule(workload, 7)
        assert [r[:4] for r in a] == [r[:4] for r in b]
        assert len({r[4] for r in a} | {r[4] for r in b}) == 2 * len(a)
