"""Tests of the benchmark itself: self-time arithmetic, the tracer, and the
correctness gate.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import burnkit  # noqa: E402
import burnkit.cli  # noqa: E402
import burnkit.generators  # noqa: E402
import gate  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import ExactSolve, OpFailed, Run, load_expected  # noqa: E402


def _tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping, as
    # interleaved work would record them) and c [8, 12] (sticking out of the
    # root); a has a child [2, 3].
    return [
        spans.Span(0, -1, "root", "bench.op", 0.0, 10.0),
        spans.Span(1, 0, "a", "graph.Graph", 1.0, 4.0),
        spans.Span(2, 1, "a.x", "graph.indexed", 2.0, 3.0),
        spans.Span(3, 0, "b", "graph.Graph", 3.0, 6.0),
        spans.Span(4, 0, "c", "burning.simulate", 8.0, 12.0),
    ]


def test_self_time_subtracts_union_of_children():
    own = spans.self_times(_tree())
    # root: children cover [1, 6] and [8, 10] -> 7 of 10
    assert own == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_aggregate_counts_nested_same_key_once():
    tree = _tree() + [spans.Span(5, 3, "b.inner", "graph.Graph", 4.0, 5.0)]
    table = spans.aggregate(tree)
    row = table["graph.Graph"]
    assert row["calls"] == 3
    assert row["s"] == pytest.approx(3.0 + 3.0)  # the nested call is inside b
    assert row["self_s"] == pytest.approx(2.0 + 2.0 + 1.0)


def test_tracer_records_import_site_names_and_restores(tmp_path):
    path = tmp_path / "c4.g"
    path.write_text(burnkit.write_graph(burnkit.generators.cycle_graph(4)), encoding="utf-8")
    original = burnkit.cli.read_graph
    tracer = spans.Tracer(burnkit)
    with tracer.installed():
        with tracer.recording("burnkit.cli.main", "cli.stats"), redirect_stdout(io.StringIO()):
            assert burnkit.cli.main(["stats", str(path)]) == 0
        # a call outside a recording leaves no spans
        with redirect_stdout(io.StringIO()):
            burnkit.cli.main(["stats", str(path)])
    assert burnkit.cli.read_graph is original
    names = {s.name for s in tracer.spans}
    assert {"burnkit.cli.read_graph", "burnkit.graph.Graph", "burnkit.cli.is_connected"} <= names
    assert tracer.spans[0].key == "cli.stats"
    assert all(s.parent == 0 for s in tracer.spans if s.name == "burnkit.cli.read_graph")
    assert tracer.counters["graph.io_bytes"] == len(path.read_bytes())
    assert sum(1 for s in tracer.spans if s.parent == -1) == 1


def test_tracer_counts_solver_nodes_and_budget_stops():
    g = burnkit.generators.cycle_graph(30)
    tracer = spans.Tracer(burnkit)
    with tracer.installed(), tracer.recording("op", "bench.solve"):
        nodes = burnkit.burning_number_exact(g).stats.nodes
        with pytest.raises(burnkit.solvers.BudgetExceededError):
            burnkit.vertex_cover_exact(burnkit.generators.random_cubic(40, 1), node_budget=1)
    assert tracer.counters["solvers.burning_number_exact.nodes"] == nodes
    assert tracer.counters["solvers.budget_stops"] == 1


# -- correctness gate ---------------------------------------------------------


def test_witness_gate_rejects_truncated_witness():
    edges = [("a", "b"), ("b", "c")]
    good = {"k_prime": "1", "length": "36", "cover": "b"}
    assert gate.check_witness(good, 32, edges, 1) == []
    assert gate.check_witness({**good, "length": "35"}, 32, edges, 1)
    assert gate.check_witness({**good, "cover": "a"}, 32, edges, 1)


def test_witness_gate_rejects_valid_cover_above_recorded_minimum():
    edges = [("a", "b"), ("b", "c")]
    larger = {"k_prime": "2", "length": "37", "cover": "a,b"}
    assert gate.check_witness(larger, 32, edges, 2) == []
    assert gate.check_witness(larger, 32, edges, 1)


def test_reduce_gate_rejects_wrong_size_or_different_h_file():
    report = {"vertices": "80294", "edges": "120441"}
    assert gate.check_reduce(report, 80294, "ab", "ab") == []
    assert gate.check_reduce(report, 80296, "ab", "ab")
    assert gate.check_reduce(report, 80294, "ab", "cd")


def test_burn_and_audit_gates_reject_incomplete_reports():
    burn = {"length": "39", "valid": "true", "complete": "true", "complete_at": "39"}
    assert gate.check_burn(burn, 39) == []
    assert gate.check_burn({**burn, "complete": "false"}, 39)
    assert gate.check_burn(burn, 38)
    audit = {"k": "39", "valid": "true", "complete": "true", "unrepresented": "0"}
    assert gate.check_audit(audit, 39) == []
    assert gate.check_audit({**audit, "unrepresented": "1"}, 39)


def test_solver_gates_reject_wrong_value_and_bad_witness():
    g = burnkit.generators.cycle_graph(9)
    result = burnkit.burning_number_exact(g)
    assert gate.check_burning(burnkit, g, result.witness, result.value, 3) == []
    assert gate.check_burning(burnkit, g, result.witness, result.value, 4)
    assert gate.check_burning(burnkit, g, list(result.witness)[:-1], result.value, 3)
    cover = burnkit.vertex_cover_exact(g)
    assert gate.check_cover(g, cover.witness, cover.value, cover.value) == []
    assert gate.check_cover(g, set(list(cover.witness)[1:]), cover.value, cover.value)
    assert gate.check_cover(g, cover.witness, cover.value, cover.value + 1)
    # an instance without a recorded value is not taken as checked
    assert gate.check_cover(g, cover.witness, cover.value, None)
    assert gate.check_burning(burnkit, g, result.witness, result.value, None)


def test_sequence_gate_rejects_overlong_and_non_burning():
    g = burnkit.generators.cycle_graph(9)
    seq = list(burnkit.burning_number_exact(g).witness)
    assert gate.check_sequence(burnkit, g, seq, 3) == []
    assert gate.check_sequence(burnkit, g, seq, 2)
    assert gate.check_sequence(burnkit, g, seq[:2], 3)


def test_run_counts_failed_operation_and_skips():
    run = Run()
    with pytest.raises(OpFailed):
        run.call("solve", lambda: 1 / 0)
    assert run.call("solve", lambda: 7) == 7
    with pytest.raises(OpFailed):
        run.verify("solve", ["wrong value"])
    run.skip(2)
    assert (run.attempted, run.failed) == (4, 4)
    assert len(run.failures) == 2


def test_exact_solve_pass_counts_wrong_recorded_value_as_failure(tmp_path):
    workload = ExactSolve(burnkit, tmp_path, seed=1)
    g = burnkit.generators.cycle_graph(9)
    workload.instances = [("burning_number", "cycle(9)", g, 4), ("vertex_cover", "cycle(9)", g, 5)]
    run = Run()
    workload.run_pass(run)
    assert (run.attempted, run.failed) == (2, 1)
    assert "recorded 4" in run.failures[0]


class _NonMinimumSolvers:
    """burnkit, except that its exact solvers answer with a valid witness one
    larger than the minimum."""

    def __init__(self):
        self.is_burning_sequence = burnkit.is_burning_sequence

    @staticmethod
    def vertex_cover_exact(g):
        result = burnkit.vertex_cover_exact(g)
        extra = next(v for v in g.vertices if v not in result.witness)
        return dataclasses.replace(result, value=result.value + 1, witness=result.witness | {extra})

    @staticmethod
    def burning_number_exact(g):
        result = burnkit.burning_number_exact(g)
        # a first source placed before the minimum sequence keeps every
        # later ball's radius, so some choice of it is still valid
        longer = ((v, *result.witness) for v in g.vertices if v not in result.witness)
        witness = next(w for w in longer if burnkit.is_burning_sequence(g, w))
        return dataclasses.replace(result, value=result.value + 1, witness=witness)


def test_exact_solve_counts_valid_but_non_minimum_answers_as_failures(tmp_path):
    workload = ExactSolve(burnkit, tmp_path, seed=3)
    workload.setup()
    fake = _NonMinimumSolvers()
    for solver, _, g, expected in workload.instances[:6]:
        if solver == "vertex_cover":
            result = fake.vertex_cover_exact(g)
            assert gate.check_cover(g, result.witness, result.value, result.value) == []
        else:
            result = fake.burning_number_exact(g)
            assert gate.check_burning(burnkit, g, result.witness, result.value, result.value) == []
    workload.bk = fake
    workload.instances = workload.instances[:6]
    run = Run()
    workload.run_pass(run)
    assert (run.attempted, run.failed) == (6, 6)
    assert all("recorded" in line for line in run.failures)


def test_exact_solve_instances_all_have_recorded_values(tmp_path):
    for seed in (1, 2, 987654321):
        workload = ExactSolve(burnkit, tmp_path, seed=seed)
        workload.setup()
        assert len(workload.instances) == 144
        assert all(expected is not None for *_, expected in workload.instances)
    assert set(load_expected()["k_prime"]) == {"k4", "prism"}


def test_layer_metrics_match_benchmark_json():
    listed = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    reported = [(name, unit) for name, unit, _, _ in bench.LAYER_METRICS] + list(bench.DERIVED_METRICS)
    assert sorted((m["name"], m["unit"]) for m in listed) == sorted(reported)
