"""Tests for the process-pool harness runner (serial-fallback paths run
everywhere; actual pools only engage on multi-core hosts)."""

import math

import pytest

from repro.core.api import simulate_workload
from repro.experiments.common import (
    clear_workload_caches,
    prewarm_workloads,
    workload_results,
)
from repro.perf.parallel import (
    _chunk_bounds,
    _merge_worker_telemetry,
    _telemetry_payload,
    available_workers,
    parallel_simulate_workload,
    parallel_workload_results,
)
from repro.platforms import RunSpec

PLATFORMS = ("PyG-CPU", "CEGMA")


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    clear_workload_caches()
    yield
    clear_workload_caches()


class TestAvailableWorkers:
    def test_defaults_to_cpu_count(self):
        import os

        assert available_workers() == (os.cpu_count() or 1)

    def test_clamped_to_cores_and_floor_of_one(self):
        import os

        cores = os.cpu_count() or 1
        assert available_workers(10_000) == cores
        assert available_workers(0) == 1
        assert available_workers(-3) == 1


class TestChunkBounds:
    def test_batch_aligned(self):
        for num_pairs, batch, workers in [
            (6, 2, 3),
            (7, 2, 2),
            (8, 4, 16),
            (1, 4, 2),
            (64, 8, 3),
        ]:
            bounds = _chunk_bounds(num_pairs, batch, workers)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == num_pairs
            for (_, stop_a), (start_b, _) in zip(bounds, bounds[1:]):
                assert stop_a == start_b
            # Every boundary except the last lands on a batch edge, so a
            # chunked run forms exactly the same batches as a serial run.
            for start, _ in bounds:
                assert start % batch == 0

    def test_single_chunk_when_one_worker(self):
        assert _chunk_bounds(64, 8, 1) == [(0, 64)]

    def test_zero_items_yields_no_chunks(self):
        # Regression: used to divide by a zero stride / emit (0, 0).
        assert _chunk_bounds(0, 4, 8) == []
        assert _chunk_bounds(-1, 4, 2) == []

    def test_chunk_size_larger_than_items(self):
        assert _chunk_bounds(3, 8, 4) == [(0, 3)]

    def test_batch_size_one(self):
        assert _chunk_bounds(4, 1, 2) == [(0, 2), (2, 4)]


class TestParallelSimulateWorkload:
    def test_matches_serial(self):
        serial = simulate_workload(
            "GMN-Li", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        chunked = parallel_simulate_workload(
            RunSpec.make("GMN-Li", "AIDS", 4, 2, 0),
            PLATFORMS,
            workers=2,
        )
        assert set(serial) == set(chunked)
        for platform in serial:
            assert serial[platform].cycles == chunked[platform].cycles
            assert serial[platform].num_pairs == chunked[platform].num_pairs
            assert math.isclose(
                serial[platform].energy_joules,
                chunked[platform].energy_joules,
                rel_tol=1e-9,
            )

    def test_jobs_parameter_on_api(self):
        serial = simulate_workload(
            "SimGNN", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        jobs = simulate_workload(
            "SimGNN",
            "AIDS",
            PLATFORMS,
            num_pairs=4,
            batch_size=2,
            seed=0,
            jobs=2,
        )
        for platform in serial:
            assert serial[platform].cycles == jobs[platform].cycles


class TestWorkerDeathFallback:
    """A worker dying mid-task (OOM kill, hard crash) surfaces from
    ``pool.map`` as BrokenExecutor after partial progress; the fallback
    must re-run the whole task list serially so results AND the merged
    metrics registry stay complete."""

    class _DyingPool:
        """Stands in for ProcessPoolExecutor; dies partway into map()."""

        def __init__(self, max_workers=None):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            from concurrent.futures.process import BrokenProcessPool

            def _gen():
                tasks_list = list(tasks)
                # First task completes, then the worker is "killed".
                yield fn(tasks_list[0])
                raise BrokenProcessPool(
                    "a child process terminated abruptly"
                )

            return _gen()

    @pytest.fixture
    def _dying_pool(self, monkeypatch):
        from repro.perf import parallel

        monkeypatch.setattr(
            parallel, "ProcessPoolExecutor", self._DyingPool
        )
        # Bypass the CPU-count clamp so the pool path engages even on
        # single-core CI hosts — the pool itself is the fake above.
        monkeypatch.setattr(
            parallel,
            "available_workers",
            lambda requested=None: requested or 2,
        )

    def test_results_complete_after_worker_death(self, _dying_pool):
        workloads = [("GMN-Li", "AIDS"), ("SimGNN", "AIDS")]
        fanned = parallel_workload_results(
            workloads, PLATFORMS, 2, 2, seed=0, workers=2
        )
        assert set(fanned) == set(workloads)
        for model, dataset in workloads:
            direct = workload_results(model, dataset, PLATFORMS, 2, 2, 0)
            for platform in PLATFORMS:
                assert (
                    fanned[(model, dataset)][platform].cycles
                    == direct[platform].cycles
                )

    def test_merged_registry_complete_and_failure_counted(self, _dying_pool):
        from repro.obs.metrics import metrics_enabled

        spec = RunSpec.make("GMN-Li", "AIDS", 4, 2, 0)
        with metrics_enabled() as registry:
            merged = parallel_simulate_workload(spec, PLATFORMS, workers=2)
        serial = simulate_workload(
            "GMN-Li", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        for platform in PLATFORMS:
            assert merged[platform].cycles == serial[platform].cycles
        # The fallback is visible: one counted failure, and the
        # simulator counters cover the full workload, not just the chunk
        # that finished before the pool broke.
        assert (
            registry.counter(
                "perf.parallel.worker_failures", kind="BrokenProcessPool"
            )
            == 1
        )
        assert (
            registry.counter("sim.pairs", platform="CEGMA") == spec.num_pairs
        )

    def test_fallback_logs_a_warning(self, _dying_pool, caplog, monkeypatch):
        import logging

        # configure_logging (run by CLI tests elsewhere in the suite)
        # stops repro.* records at its own handler; let them reach
        # caplog's root handler for this test.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level(logging.WARNING, logger="repro.perf.parallel"):
            parallel_simulate_workload(
                RunSpec.make("GMN-Li", "AIDS", 4, 2, 0),
                PLATFORMS,
                workers=2,
            )
        assert any(
            "BrokenProcessPool" in record.getMessage()
            for record in caplog.records
        )


class TestSharedMemoryTransport:
    def test_shm_chunks_match_serial(self):
        from repro.perf.parallel import _shm_map_chunks

        spec = RunSpec.make("GMN-Li", "AIDS", 4, 2, 0)
        bounds = _chunk_bounds(spec.num_pairs, spec.batch_size, 2)
        assert len(bounds) == 2
        # workers=1 keeps the tasks in-process, so this exercises the
        # full publish → attach → zero-copy rebuild path without a pool.
        chunks = _shm_map_chunks(spec, PLATFORMS, bounds, 1, (False, False))
        assert chunks is not None
        serial = simulate_workload(
            "GMN-Li", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        chunks.sort(key=lambda item: item[0])
        merged = {}
        for _, results, _ in chunks:
            for platform, result in results.items():
                if platform in merged:
                    merged[platform].merge(result)
                else:
                    merged[platform] = result
        for platform in PLATFORMS:
            assert merged[platform].cycles == serial[platform].cycles
            assert merged[platform].num_pairs == serial[platform].num_pairs

    def test_segment_failure_falls_back_and_is_counted(self, monkeypatch):
        from multiprocessing import shared_memory

        from repro.obs.metrics import metrics_enabled
        from repro.perf import parallel

        def _refuse(*args, **kwargs):
            raise OSError("no shared memory on this host")

        monkeypatch.setattr(shared_memory, "SharedMemory", _refuse)
        monkeypatch.setattr(
            parallel, "available_workers", lambda requested=None: requested or 2
        )
        spec = RunSpec.make("GMN-Li", "AIDS", 4, 2, 0)
        with metrics_enabled() as registry:
            results = parallel_simulate_workload(spec, PLATFORMS, workers=2)
        serial = simulate_workload(
            "GMN-Li", "AIDS", PLATFORMS, num_pairs=4, batch_size=2, seed=0
        )
        for platform in PLATFORMS:
            assert results[platform].cycles == serial[platform].cycles
        assert (
            registry.counter("perf.parallel.shm_failures", kind="OSError") == 1
        )
        assert registry.gauge("perf.parallel.workers") == 2


class TestWorkerTelemetryTransport:
    """The shared worker→parent telemetry contract."""

    def _worker_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("sim.macs", 7)
        registry.observe("lat", 0.002, bounds=(0.001, 0.004, 0.016))
        return registry

    def test_payload_without_tracker_is_metrics_only(self):
        payload = _telemetry_payload(self._worker_registry())
        assert set(payload) == {"metrics"}
        assert payload["metrics"]["counters"]["sim.macs"] == 7

    def test_payload_ships_spans_when_tracked(self):
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        tracer.record(
            "execute.shard", 0.0, 0.1, parent="execute", request_ids=(3,)
        )
        payload = _telemetry_payload(self._worker_registry(), tracer)
        assert [s["request_ids"] for s in payload["spans"]] == [(3,)]
        # An empty tracer adds no spans key — keeps the pipe payload
        # identical to the metrics-only contract.
        empty = _telemetry_payload(self._worker_registry(), Tracer())
        assert "spans" not in empty

    def test_merge_accepts_combined_shape(self):
        from repro.obs.metrics import metrics_enabled
        from repro.obs.tracing import tracing_enabled

        payload = _telemetry_payload(self._worker_registry())
        payload["spans"] = [
            {
                "name": "sim.batch",
                "ph": "X",
                "ts": 0.0,
                "dur": 1.0,
                "pid": 999,
                "request_ids": [1],
            }
        ]
        with metrics_enabled() as registry, tracing_enabled() as tracer:
            _merge_worker_telemetry(payload)
        assert [s["request_ids"] for s in tracer.events] == [[1]]
        assert [e["pid"] for e in tracer.events] == [999]
        assert registry.counter("sim.macs") == 7
        merged = registry.histogram("lat")
        assert merged.bounds == (0.001, 0.004, 0.016)
        assert merged.count == 1

    def test_merge_of_none_is_a_noop(self):
        from repro.obs.tracing import tracing_enabled

        with tracing_enabled() as tracer:
            _merge_worker_telemetry(None)
        assert len(tracer) == 0

    def test_merge_without_active_registry_still_returns_spans(self):
        from repro.obs.tracing import Tracer

        payload = _telemetry_payload(self._worker_registry())
        payload["spans"] = [
            {"name": "execute.shard", "ts": 0.0, "dur": 0.1,
             "request_ids": [2]}
        ]
        tracer = Tracer()
        _merge_worker_telemetry(payload, tracer)
        assert [s["request_ids"] for s in tracer.events] == [[2]]
        assert tracer.request_ids() == [2]


class TestParallelWorkloadResults:
    def test_matches_direct_results(self):
        workloads = [("GMN-Li", "AIDS"), ("SimGNN", "AIDS")]
        fanned = parallel_workload_results(
            workloads, PLATFORMS, 2, 2, seed=0, workers=2
        )
        assert set(fanned) == set(workloads)
        for model, dataset in workloads:
            direct = workload_results(model, dataset, PLATFORMS, 2, 2, 0)
            for platform in PLATFORMS:
                assert (
                    fanned[(model, dataset)][platform].cycles
                    == direct[platform].cycles
                )

    def test_prewarm_primes_memo(self):
        prewarm_workloads(
            [("GMN-Li", "AIDS")], PLATFORMS, 2, 2, seed=0, workers=1
        )
        import time

        start = time.perf_counter()
        workload_results("GMN-Li", "AIDS", PLATFORMS, 2, 2, 0)
        assert time.perf_counter() - start < 0.05  # memo hit, no profiling


def _shm_segments():
    import os

    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return set()
    return {name for name in os.listdir(shm_dir) if name.startswith("psm_")}


class TestPooledRunsStayQuiet:
    """A normal pooled run writes nothing to stderr and leaks no
    shared-memory segment: workers attach to the parent's segment
    without touching the resource tracker the parent shares with them,
    so the parent's ``unlink`` is the only cleanup."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--quick"],
            [
                "simulate", "--model", "GMN-Li", "--dataset", "AIDS",
                "--pairs", "16", "--batch", "4", "--jobs", "2",
            ],
        ],
        ids=["serve", "simulate"],
    )
    def test_no_stderr_and_no_leaked_segments(self, tmp_path, argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        before = _shm_segments()
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert _shm_segments() - before == set()


class TestPooledTraceKeepsWorkerSpans:
    """``--jobs N --trace`` must carry the workers' spans home: each
    worker records into a private tracer that ships in its telemetry
    payload, and the parent keeps every event's worker ``pid``."""

    def test_pooled_trace_has_worker_sim_batch_events(self, tmp_path):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env["REPRO_TRACE_CACHE"] = "off"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "simulate",
                "--model", "GMN-Li", "--dataset", "AIDS",
                "--pairs", "16", "--batch", "4", "--jobs", "2",
                "--trace", "t.json",
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
        # The parent profiles once and publishes the traces to workers.
        (profile,) = [e for e in events if e["name"] == "harness.profile"]
        batches = [e for e in events if e["name"] == "sim.batch"]
        assert batches, sorted({e["name"] for e in events})
        if (os.cpu_count() or 1) > 1:
            assert any(e["pid"] != profile["pid"] for e in batches)
