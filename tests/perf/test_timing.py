"""Tests for stage timings (a span-recorder view) and BenchReport edge
cases."""

import json
from pathlib import Path

import pytest

from repro.obs.tracing import Tracer, span, tracing_enabled
from repro.perf.timing import BenchReport

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestStageTimer:
    def test_records_elapsed_and_calls(self):
        tracer = Tracer()
        tracer.record("work", 0.0, 0.5)
        tracer.record("work", 2.0, 2.75)
        with tracer.span("work"):
            pass
        timings = tracer.timings("work")
        assert timings["work"]["calls"] == 3
        assert 1.25 <= timings["work"]["seconds"] < 1.25 + 1.0

    def test_raising_stage_still_records(self):
        """A stage that raises must still record its elapsed time and
        call count — otherwise a crashed run's report undercounts."""
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        timings = tracer.timings("doomed")
        assert timings["doomed"]["calls"] == 1
        assert timings["doomed"]["seconds"] >= 0

    def test_time_stage_tolerates_none(self):
        with span("ignored"):
            pass

    def test_time_stage_raising_records(self):
        with tracing_enabled() as tracer:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
            with span("after"):
                pass
        assert tracer.timings("doomed")["doomed"]["calls"] == 1
        # The raising span closed: the next one is top-level again.
        assert "parent" not in tracer.events[-1]

    def test_record_accumulates(self):
        tracer = Tracer()
        tracer.record("stage", 0.0, 1.0)
        tracer.record("stage", 10.0, 12.0)
        timings = tracer.timings("stage")
        assert timings["stage"]["seconds"] == 3.0
        assert timings["stage"]["calls"] == 2

    def test_timings_select_stages_opened_under_the_root(self):
        """Same-named spans deeper in the tree are not stage timings."""
        tracer = Tracer()
        with tracer.span("cli"):
            with tracer.span("simulate"):
                with tracer.span("simulate", platform="CEGMA"):
                    pass
        with tracer.span("simulate"):  # outside the root
            pass
        timings = tracer.timings("cli", ("simulate",))
        assert sorted(timings) == ["cli", "simulate"]
        assert timings["simulate"]["calls"] == 1


class TestBenchReportSpeedups:
    def test_speedup_from_recorded_timings(self):
        report = BenchReport("unit")
        report.add_timing("slow", 2.0)
        report.add_timing("fast", 1.0)
        report.add_speedup("x", "slow", "fast")
        assert report.speedups["x"] == 2.0

    def test_missing_variant_raises_with_names(self):
        report = BenchReport("unit")
        report.add_timing("slow", 2.0)
        with pytest.raises(ValueError) as excinfo:
            report.add_speedup("x", "slow", "never_timed")
        message = str(excinfo.value)
        assert "never_timed" in message
        assert "slow" in message  # lists what *was* recorded

    def test_both_variants_missing_are_named(self):
        report = BenchReport("unit")
        with pytest.raises(ValueError) as excinfo:
            report.add_speedup("x", "a", "b")
        assert "'a'" in str(excinfo.value)
        assert "'b'" in str(excinfo.value)

    def test_zero_fast_time_is_infinite(self):
        report = BenchReport("unit")
        report.add_timing("slow", 1.0)
        report.add_timing("fast", 0.0)
        report.add_speedup("x", "slow", "fast")
        assert report.speedups["x"] == float("inf")


class TestBenchReportSchemaV2:
    def _report(self):
        report = BenchReport("unit", config={"n": 4})
        report.add_timing("slow", 2.0, samples=[2.0, 2.1, 2.05])
        report.add_timing("fast", 1.0, samples=[1.0, 1.02, 0.98])
        report.repeats = 3
        report.add_speedup("gain", "slow", "fast")
        report.checks["identical"] = True
        return report

    def test_as_dict_carries_schema_samples_repeats(self):
        payload = self._report().as_dict()
        assert payload["schema_version"] == 2
        assert payload["samples"]["fast"] == [1.0, 1.02, 0.98]
        assert payload["repeats"] == 3
        assert "provenance" in payload and "platform" in payload

    def test_round_trip_preserves_samples_and_stamp(self):
        payload = self._report().as_dict()
        clone = BenchReport.from_dict(payload)
        assert clone.samples == payload["samples"]
        assert clone.repeats == 3
        assert clone.speedups["gain"] == 2.0
        # Re-serializing a loaded report keeps the original stamp
        # instead of minting a fresh one.
        assert clone.as_dict()["provenance"] == payload["provenance"]
        assert clone.as_dict()["platform"] == payload["platform"]

    def test_timing_without_samples_stays_sampleless(self):
        report = BenchReport("unit")
        report.add_timing("only", 1.5)
        assert report.samples == {}

    def test_legacy_v1_payload_loads_with_empty_samples(self):
        # The committed BENCH_harness.json was recorded as v1 and
        # migrated to v2 with empty samples; it loads with its timings.
        with open(REPO_ROOT / "BENCH_harness.json") as handle:
            payload = json.load(handle)
        clone = BenchReport.from_dict(payload)
        assert clone.samples == {}
        assert clone.repeats is None
        assert clone.timings == payload["timings"]
        # The unmigrated v1 shape (no schema_version) is refused with a
        # hint at how to fix it.
        del payload["schema_version"]
        with pytest.raises(ValueError, match="legacy v1 file"):
            BenchReport.from_dict(payload)

    def test_unknown_newer_schema_rejected(self):
        payload = self._report().as_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="upgrade"):
            BenchReport.from_dict(payload)

    def test_non_bench_payload_rejected(self):
        with pytest.raises(ValueError, match="BENCH"):
            BenchReport.from_dict({"schema_version": 2, "other": 1})
        with pytest.raises(ValueError):
            BenchReport.from_dict("not a dict")
