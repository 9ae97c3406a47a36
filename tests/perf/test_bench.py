"""Tests for the timing utilities and the microbenchmark driver."""

import json

import pytest

from repro.obs.tracing import Tracer, span, tracing_enabled
from repro.perf.timing import BenchReport


class TestStageTimer:
    """Stage timings are a view over the span recorder."""

    def test_accumulates_seconds_and_calls(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("work"):
                pass
        timings = tracer.timings("work")
        assert timings["work"]["calls"] == 3
        assert timings["work"]["seconds"] >= 0.0
        assert timings["work"]["seconds"] == pytest.approx(
            sum(event["dur"] for event in tracer.events) / 1e6
        )

    def test_record_direct(self):
        tracer = Tracer()
        tracer.record("io", 0.0, 1.5)
        tracer.record("io", 4.0, 4.5)
        assert tracer.timings("io") == {"io": {"seconds": 2.0, "calls": 2}}

    def test_time_stage_tolerates_none(self):
        with span("anything"):  # no active tracer: a shared no-op
            pass
        with tracing_enabled() as tracer:
            with span("real"):
                pass
        assert tracer.timings("real")["real"]["calls"] == 1


class TestBenchReport:
    def test_write_layout(self, tmp_path):
        report = BenchReport("unit", config={"n": 4})
        report.add_timing("slow", 2.0)
        report.add_timing("fast", 0.5)
        report.add_speedup("gain", "slow", "fast")
        report.checks["ok"] = True
        path = report.write(tmp_path)
        assert path.name == "BENCH_unit.json"
        data = json.loads(path.read_text())
        assert data["speedups"]["gain"] == 4.0
        assert data["checks"]["ok"] is True
        assert data["config"]["n"] == 4
        assert data["platform"]["cpus"] >= 1

    def test_zero_time_speedup_is_inf(self):
        report = BenchReport("unit")
        report.add_timing("slow", 1.0)
        report.add_timing("fast", 0.0)
        report.add_speedup("gain", "slow", "fast")
        assert report.speedups["gain"] == float("inf")


class TestBenchEMF:
    def test_quick_run_confirms_equivalence_and_speedup(self):
        from repro.perf.bench import bench_emf

        report = bench_emf(quick=True, repeats=1)
        assert report.checks["tags_identical"]
        assert report.checks["record_sets_identical"]
        assert report.checks["tag_maps_identical"]
        # The acceptance bar is 5x; quick mode clears it with margin.
        assert report.speedups["emf_hashing"] > 5.0
        assert report.speedups["emf_filter"] > 5.0


@pytest.mark.slow
class TestBenchHarness:
    def test_quick_harness_speedup(self, tmp_path):
        from repro.perf.bench import bench_harness

        report = bench_harness(quick=True)
        assert report.checks["cold_matches_uncached"]
        assert report.checks["warm_matches_uncached"]
        assert report.speedups["harness_quick"] > 1.0
        path = report.write(tmp_path)
        assert json.loads(path.read_text())["name"] == "harness"


class TestBenchHistoryIntegration:
    """``repro bench`` appends to the history it resolves from
    ``--history-dir``, then ``REPRO_BENCH_HISTORY``, then the default."""

    @staticmethod
    def _bench(tmp_path, *extra):
        from repro.__main__ import main

        return main(
            [
                "bench",
                "--quick",
                "--only",
                "emf",
                "--repeats",
                "1",
                "--output-dir",
                str(tmp_path),
                *extra,
            ]
        )

    @staticmethod
    def _fake_emf(monkeypatch):
        import repro.perf.bench as bench_module

        def fake_emf(quick, repeats):
            report = BenchReport("emf")
            report.add_timing("scalar", 0.2, samples=[0.2])
            report.add_timing("vectorized", 0.1, samples=[0.1])
            report.repeats = repeats
            report.checks["tags_identical"] = True
            return report

        monkeypatch.setattr(bench_module, "bench_emf", fake_emf)

    def test_main_appends_history_entry(self, tmp_path, monkeypatch):
        from repro.obs.history import BenchHistory

        monkeypatch.delenv("REPRO_BENCH_HISTORY", raising=False)
        history_dir = tmp_path / "hist"
        assert self._bench(tmp_path, "--history-dir", str(history_dir)) == 0
        history = BenchHistory(history_dir)
        entries = history.read("emf")
        assert len(entries) == 1
        assert entries[0].samples  # raw repeats retained
        assert entries[0].repeats == 1

    def test_history_dir_off_beats_env(self, tmp_path, monkeypatch):
        self._fake_emf(monkeypatch)
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(tmp_path / "envhist"))
        assert self._bench(tmp_path, "--history-dir", "off") == 0
        assert (tmp_path / "BENCH_emf.json").exists()
        assert not (tmp_path / "envhist").exists()

    def test_env_off_disables_recording(self, tmp_path, monkeypatch):
        from repro.obs.history import BenchHistory

        self._fake_emf(monkeypatch)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_HISTORY", "off")
        assert self._bench(tmp_path) == 0
        assert not (tmp_path / "results").exists()
        # The env var relocates the store...
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(tmp_path / "h"))
        assert self._bench(tmp_path) == 0
        assert len(BenchHistory(tmp_path / "h").read("emf")) == 1
        # ...and --history-dir wins over it.
        cli_dir = str(tmp_path / "cli")
        assert self._bench(tmp_path, "--history-dir", cli_dir) == 0
        assert len(BenchHistory(tmp_path / "cli").read("emf")) == 1
        assert len(BenchHistory(tmp_path / "h").read("emf")) == 1
