"""Self-tests of the benchmark: metric names, seeds, fail-capable checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import verifier  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [item["name"] for item in SPEC["workloads"]]


def run_bench(workload, seed=1, trace=0, seconds=1):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_lists_the_runner_metrics():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        workloads.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_without_failures(workload, trace):
    result = run_bench(workload, trace=trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_changes_inputs_but_not_metric_names():
    one = workloads.ServeHot(1, workloads.TINY)
    two = workloads.ServeHot(2, workloads.TINY)
    sig = workloads.graph_signature
    assert [sig(g) for g in one.graphs] != [sig(g) for g in two.graphs]
    assert list(one.schedule(1.0)[1]) != list(two.schedule(1.0)[1])
    again = workloads.ServeHot(1, workloads.TINY)
    assert [sig(g) for g in one.graphs] == [sig(g) for g in again.graphs]
    names = [set(run_bench("serve-unique", seed=s)["metrics"]) for s in (1, 2)]
    assert names[0] == names[1]


def test_verifier_counts_a_perturbed_score_as_failed():
    bench = workloads.ServeUnique(3, workloads.TINY)
    bench.setup()
    measurement = bench.measure(0.01)
    assert bench.check(measurement).failed == 0
    record = measurement.ops[0]
    position = record["op"] % len(record["queries"])
    request_id = record["requests"][position][0]
    response = record["responses"][request_id]
    first, *rest = response.results
    bumped = dataclasses.replace(first, score=first.score + 1e-12)
    record["responses"][request_id] = dataclasses.replace(
        response, results=(bumped, *rest)
    )
    assert bench.check(measurement).failed == 1


def test_verifier_counts_a_perturbed_cycle_total_as_failed():
    sweep = workloads.SimSweep(3, workloads.TINY)
    sweep.setup()
    measurement = sweep.measure(0.01)
    assert sweep.check(measurement).failed == 0
    cycles, dram, latency = measurement.ops[0]["record"]
    measurement.ops[0]["record"] = [cycles + 1.0, dram, latency]
    assert sweep.check(measurement).failed == 1


def test_score_checks_reject_reordering_and_wrong_scores():
    scores = [0.5, 0.9, 0.9, 0.1]
    expected = verifier.brute_ranking(scores, 3)
    assert expected == [(1, 0.9), (2, 0.9), (0, 0.5)]
    assert verifier.check_exact(expected, expected)
    assert not verifier.check_exact(expected[::-1], expected)
    assert verifier.check_scores([(2, 0.9), (3, 0.1)], scores, 3)
    assert not verifier.check_scores([(3, 0.1), (2, 0.9)], scores, 3)
    assert not verifier.check_scores([(2, 0.8)], scores, 3)
    assert verifier.recall([(1, 0.9)], expected) == pytest.approx(1 / 3)
