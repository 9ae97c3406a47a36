"""Instrumentation agreement tests.

The counters the simulator emits must agree with the post-hoc analysis
paths the figures use — otherwise the observability layer would tell a
different story than the paper's plots for the same RunSpec.
"""

import pytest

from repro.analysis.redundancy import remaining_matching_fraction
from repro.core.api import simulate_traces
from repro.emf.filter import elastic_matching_filter
from repro.cgc.aoe import approximate_outlier_estimation
from repro.experiments.common import clear_workload_caches, workload_traces
from repro.obs.metrics import metrics_enabled
from repro.obs.tracing import tracing_enabled
from repro.platforms import RunSpec

PLATFORMS = ("HyGCN", "AWB-GCN", "CEGMA")


@pytest.fixture(autouse=True)
def _isolated_caches(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    clear_workload_caches()
    yield
    clear_workload_caches()


@pytest.fixture(scope="module")
def traces():
    return workload_traces("GMN-Li", "AIDS", 4, 4, 0)


class TestFigureAgreement:
    def test_dram_counters_match_fig17_path(self, traces):
        """sim.dram.* counters must equal PlatformResult.dram_bytes —
        the quantity fig17 normalizes."""
        with metrics_enabled() as registry:
            results = simulate_traces(traces, PLATFORMS)
        for platform in PLATFORMS:
            counted = registry.counter(
                "sim.dram.read_bytes", platform=platform
            ) + registry.counter("sim.dram.write_bytes", platform=platform)
            assert counted == pytest.approx(results[platform].dram_bytes)

    def test_emf_skip_rate_matches_fig18_path(self, traces):
        """emf.matchings.unique/total must reproduce fig18's
        remaining_matching_fraction for the same workload."""
        with metrics_enabled() as registry:
            simulate_traces(traces, ("CEGMA",))
        total = registry.counter("emf.matchings.total", platform="CEGMA")
        unique = registry.counter("emf.matchings.unique", platform="CEGMA")
        assert total > 0
        pair_traces = [
            trace for batch in traces for trace in batch.pair_traces
        ]
        expected = remaining_matching_fraction(pair_traces)
        assert unique / total == pytest.approx(expected)

    def test_pair_and_cycle_counters(self, traces):
        num_pairs = sum(batch.batch.batch_size for batch in traces)
        with metrics_enabled() as registry:
            results = simulate_traces(traces, ("CEGMA",))
        assert registry.counter("sim.pairs", platform="CEGMA") == num_pairs
        # sim.cycles covers the GNN layers; result.cycles adds readout.
        layer_cycles = registry.counter("sim.cycles", platform="CEGMA")
        assert 0 < layer_cycles <= results["CEGMA"].cycles

    def test_simulation_emits_spans(self, traces):
        with tracing_enabled() as tracer:
            simulate_traces(traces, ("CEGMA",))
        names = {event["name"] for event in tracer.events}
        assert "simulate" in names
        assert "sim.batch" in names


class TestComponentCounters:
    def test_emf_filter_counts_duplicates(self):
        import numpy as np

        features = np.ones((6, 3))
        features[0] = 2.0  # one unique row + five duplicates of another
        with metrics_enabled() as registry:
            result = elastic_matching_filter(features)
        assert registry.counter("emf.filter.calls") == 1
        assert registry.counter("emf.filter.nodes") == 6
        assert registry.counter("emf.filter.unique_nodes") == result.num_unique
        assert registry.counter("emf.filter.duplicate_hits") == 4

    def test_aoe_decision_counters(self):
        with metrics_enabled() as registry:
            assert approximate_outlier_estimation([1, 1], [2, 3]) == 0
            assert approximate_outlier_estimation([5], [1, 1]) == 1
        assert registry.counter("cgc.aoe.decisions", direction="column") == 1
        assert registry.counter("cgc.aoe.decisions", direction="row") == 1
        histogram = registry.histogram("cgc.aoe.outliers")
        assert histogram.count == 2

    def test_window_counters_present(self, traces):
        with metrics_enabled() as registry:
            simulate_traces(traces, ("CEGMA",))
        assert registry.counter("cgc.window.advances", platform="CEGMA") > 0
        occupancy = registry.histogram(
            "cgc.window.occupancy", platform="CEGMA"
        )
        assert occupancy is not None and occupancy.count > 0


class TestHarnessCounters:
    def test_trace_memo_hit_and_miss(self):
        with metrics_enabled() as registry:
            workload_traces("GMN-Li", "AIDS", 2, 2, 0)
            workload_traces("GMN-Li", "AIDS", 2, 2, 0)
        assert registry.counter("harness.trace_memo.miss") == 1
        assert registry.counter("harness.trace_memo.hit") == 1


class TestParallelMerge:
    def test_chunked_simulation_merges_worker_metrics(self, monkeypatch, tmp_path):
        from repro.perf.parallel import parallel_simulate_workload

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        spec = RunSpec.make("GMN-Li", "AIDS", 4, 2, 0)
        with metrics_enabled() as registry:
            results = parallel_simulate_workload(spec, ("CEGMA",), workers=2)
        assert results["CEGMA"].num_pairs == 4
        # Worker registries were shipped back and merged: the parent
        # sees the whole workload's pair count.
        assert registry.counter("sim.pairs", platform="CEGMA") == 4

    def test_spec_fanout_merges_worker_metrics(self, monkeypatch, tmp_path):
        from repro.perf.parallel import parallel_run_specs

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        specs = [
            RunSpec.make("GMN-Li", "AIDS", 2, 2, 0),
            RunSpec.make("GMN-Li", "AIDS", 2, 2, 1),
        ]
        with metrics_enabled() as registry:
            computed = parallel_run_specs(specs, ("CEGMA",), workers=2)
        assert len(computed) == 2
        assert registry.counter("sim.pairs", platform="CEGMA") == 4

    def test_no_collection_when_metrics_off(self, monkeypatch, tmp_path):
        from repro.perf.parallel import _spec_task

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        payload = RunSpec.make("GMN-Li", "AIDS", 2, 2, 0).to_dict()
        _, results, metrics_payload = _spec_task(
            (payload, ("CEGMA",), (False, False))
        )
        assert metrics_payload is None
        assert results["CEGMA"].num_pairs == 2
