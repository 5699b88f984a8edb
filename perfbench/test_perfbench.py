"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench``.  They
check that the printed metric names are the ones BENCHMARK.json declares,
that the correctness gate counts a wrong reference and a backwards-signalling
board as failures, and that tracing tolerates a name that no longer exists.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import qcombs as qc  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_declared_names_and_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    _, summary = _run_bench("qutrit-budget", seed=1, trace=trace)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert printed == declared
    assert summary["correct"] and summary["failed"] == 0


def test_second_seed_gives_same_metric_set_without_failures():
    first_detail, first = _run_bench("networks", seed=1, trace=0)
    second_detail, second = _run_bench("networks", seed=2, trace=0)
    assert set(first["metrics"]) == set(second["metrics"])
    for detail, summary in ((first_detail, first), (second_detail, second)):
        assert summary["failed"] == 0
        assert detail["figures"]["fail_frac"]["value"] == 0.0
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_gate_counts_a_wrong_reference():
    po = qc.learning_objective(2, 2)
    problem = qc.SdpProblem(po, po.structure)
    # 3/d^2 is the two-use constant the command line quotes for qubits; the
    # optimum is cos^2(pi/5), so the certified interval excludes it.
    wrong = workloads.solve_op("learn2", problem, 0.75, gate_gap=True)
    right = workloads.solve_op(
        "learn2", problem, workloads.learning_reference(2), gate_gap=True
    )
    phase = run.measure([wrong, right], seconds=0)
    assert phase.attempted == 2
    assert [f["op"] for f in phase.failures] == ["learn2"]
    assert "outside" in phase.failures[0]["reasons"][0]


def test_gate_counts_a_backwards_signalling_board(tmp_path, monkeypatch):
    v1 = qc.max_entangled((qc.Wire("1", 2), qc.Wire("2", 2)))
    v2 = qc.max_entangled((qc.Wire("3", 2), qc.Wire("0", 2)))
    op = v1.outer().tensor(v2.outer()).permuted(("0", "1", "2", "3"))
    bad = qc.QuantumComb(op, qc.CombStructure.standard([2, 2, 2, 2]))
    good = workloads.network_op("good", (2, 2, 2, 2), (2,), 1, 2, tmp_path)
    drawn = workloads.network_op("drawn", (2, 2, 2, 2), (2,), 1, 2, tmp_path)
    assert run.measure([good], seconds=0).failures == []
    # The library draw returns the backwards-signalling board; the command
    # line keeps its own import and still writes a causal one.
    monkeypatch.setattr(qc, "random_comb", lambda structure, memory, seed: bad)
    phase = run.measure([drawn], seconds=0)
    assert phase.attempted == 1
    assert len(phase.failures) == 1
    assert "drawn board fails verification" in phase.failures[0]["reasons"][0]


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.setattr(
        tracer, "TARGETS",
        tracer.TARGETS + (("link.link_product", "qcombs.link", "no_such_function", None),),
    )
    t = tracer.Tracer()
    t.install()
    try:
        a = qc.LabeledOperator.identity([qc.Wire("a", 2), qc.Wire("b", 2)])
        b = qc.LabeledOperator.identity([qc.Wire("b", 2), qc.Wire("c", 2)])
        qc.link_product(a, b)
    finally:
        t.uninstall()
    assert t.absent == ["qcombs.link.no_such_function"]
    values = t.metrics(passes=1)
    assert values["link.link_product_calls"] == 1
    assert values["labeled.ptrace_calls"] >= 1
    assert qc.link_product.__name__ == "link_product"
    assert not hasattr(qc.link_product, "__wrapped__")


def test_tail_is_nearest_rank_p90():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)

