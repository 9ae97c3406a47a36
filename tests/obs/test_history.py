"""Tests for the append-only benchmark history store."""

import json
from pathlib import Path

import pytest

from repro.obs.history import (
    HISTORY_ENTRY_KIND,
    HISTORY_SCHEMA_VERSION,
    BenchHistory,
    HistoryEntry,
    config_digest,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _bench_payload(name="unit", seconds=1.0, **config):
    """A minimal v2 BENCH_*.json payload."""
    return {
        "schema_version": 2,
        "name": name,
        "platform": {"python": "3.x", "machine": "test", "cpus": 1},
        "provenance": {
            "git_sha": "abc123def456",
            "created_at": "2026-08-08T00:00:00+00:00",
            "generator": "test",
        },
        "config": dict(config) or {"n": 4},
        "timings": {"slow": 2.0 * seconds, "fast": seconds},
        "samples": {
            "slow": [2.0 * seconds, 2.1 * seconds, 2.05 * seconds],
            "fast": [seconds, 1.01 * seconds, 0.99 * seconds],
        },
        "repeats": 3,
        "speedups": {"gain": 2.0},
        "checks": {"identical": True, "num_unique": 128},
    }


class TestConfigDigest:
    def test_stable_and_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_none_and_empty_agree(self):
        assert config_digest(None) == config_digest({})


class TestHistoryEntryRoundTrip:
    def test_to_from_dict_round_trips(self):
        entry = HistoryEntry.from_bench_report(_bench_payload())
        clone = HistoryEntry.from_dict(entry.to_dict())
        assert clone == entry
        assert clone.config_key == entry.config_key

    def test_dict_carries_schema_and_kind(self):
        payload = HistoryEntry.from_bench_report(_bench_payload()).to_dict()
        assert payload["schema_version"] == HISTORY_SCHEMA_VERSION
        assert payload["kind"] == HISTORY_ENTRY_KIND

    def test_unknown_schema_version_errors_with_upgrade_hint(self):
        payload = HistoryEntry.from_bench_report(_bench_payload()).to_dict()
        payload["schema_version"] = HISTORY_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="upgrade"):
            HistoryEntry.from_dict(payload)

    def test_wrong_kind_errors(self):
        payload = HistoryEntry.from_bench_report(_bench_payload()).to_dict()
        payload["kind"] = "something-else"
        with pytest.raises(ValueError, match="kind"):
            HistoryEntry.from_dict(payload)

    def test_missing_required_key_errors(self):
        payload = HistoryEntry.from_bench_report(_bench_payload()).to_dict()
        del payload["timings"]
        with pytest.raises(ValueError, match="timings"):
            HistoryEntry.from_dict(payload)

    def test_sample_values_fall_back_to_aggregate(self):
        entry = HistoryEntry.from_bench_report(_bench_payload())
        assert len(entry.sample_values("fast")) == 3
        legacy = HistoryEntry(
            bench="legacy", entry_id="x", timings={"only": 1.5}
        )
        assert legacy.sample_values("only") == [1.5]
        assert legacy.sample_values("absent") == []

    def test_ingesting_unknown_bench_schema_errors(self):
        payload = _bench_payload()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            HistoryEntry.from_bench_report(payload)

    def test_legacy_v1_payload_ingests_without_samples(self):
        # The committed BENCH_emf.json was recorded as v1 and migrated to
        # v2 with empty samples: it ingests to the entry id already in
        # the committed history, and its timings stand in for samples.
        with open(REPO_ROOT / "BENCH_emf.json") as handle:
            payload = json.load(handle)
        entry = HistoryEntry.from_bench_report(payload)
        assert entry.samples == {}
        assert entry.repeats is None
        for variant, seconds in payload["timings"].items():
            assert entry.sample_values(variant) == [seconds]
        committed = BenchHistory(REPO_ROOT / "results/obs/bench_history")
        assert entry.entry_id in committed.ids("emf")


class TestBenchHistoryStore:
    def test_append_and_read_in_order(self, tmp_path):
        history = BenchHistory(tmp_path)
        first, appended = history.append(_bench_payload(seconds=1.0))
        assert appended
        second, appended = history.append(_bench_payload(seconds=1.3))
        assert appended
        entries = history.read("unit")
        assert [e.entry_id for e in entries] == [
            first.entry_id,
            second.entry_id,
        ]
        assert history.latest("unit").entry_id == second.entry_id
        assert history.benches() == ["unit"]

    def test_append_is_idempotent(self, tmp_path):
        history = BenchHistory(tmp_path)
        payload = _bench_payload()
        _, appended = history.append(payload)
        assert appended
        _, appended = history.append(payload)
        assert not appended
        assert len(history.read("unit")) == 1

    def test_invalid_bench_name_rejected(self, tmp_path):
        history = BenchHistory(tmp_path)
        for name in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError, match="bench name"):
                history.path_for(name)

    def test_missing_file_reads_empty(self, tmp_path):
        history = BenchHistory(tmp_path)
        assert history.read("nothing") == []
        assert history.latest("nothing") is None
        assert history.benches() == []

    def test_truncated_line_skipped_and_counted(
        self, tmp_path, caplog, monkeypatch
    ):
        import logging

        # configure_logging (run by CLI tests) turns off propagation on
        # the "repro" logger; restore it so caplog sees the warning.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        history = BenchHistory(tmp_path)
        entry, _ = history.append(_bench_payload())
        path = history.path_for("unit")
        with open(path, "a") as handle:
            handle.write('{"schema_version": 1, "kind": "repro-ben')
        with caplog.at_level("WARNING", logger="repro.obs.history"):
            entries = history.read("unit")
        assert [e.entry_id for e in entries] == [entry.entry_id]
        assert history.last_skipped == 1
        assert "truncated" in caplog.text

    def test_valid_line_with_newer_schema_still_raises(self, tmp_path):
        history = BenchHistory(tmp_path)
        history.append(_bench_payload())
        payload = history.read("unit")[0].to_dict()
        payload["schema_version"] = HISTORY_SCHEMA_VERSION + 1
        with open(history.path_for("unit"), "a") as handle:
            handle.write(json.dumps(payload) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            history.read("unit")

    def test_record_file_ingests_bench_json(self, tmp_path):
        bench_file = tmp_path / "BENCH_unit.json"
        bench_file.write_text(json.dumps(_bench_payload()))
        history = BenchHistory(tmp_path / "hist")
        entry, appended = history.record_file(bench_file)
        assert appended
        assert entry.bench == "unit"
        _, appended = history.record_file(bench_file)
        assert not appended


class TestCommittedMigration:
    """The committed BENCH_*.json files and their migrated history."""

    @pytest.mark.parametrize("bench", ["emf", "harness", "search"])
    def test_committed_history_contains_bench_entry(self, bench):
        history = BenchHistory(REPO_ROOT / "results" / "obs" / "bench_history")
        entries = history.read(bench)
        assert entries, f"no migrated history for {bench}"
        assert all(entry.bench == bench for entry in entries)
        assert all(entry.git_sha != "unknown" for entry in entries)

    @pytest.mark.parametrize("bench", ["emf", "harness", "search"])
    def test_re_recording_committed_file_is_noop(self, bench, tmp_path):
        committed = BenchHistory(
            REPO_ROOT / "results" / "obs" / "bench_history"
        )
        source = REPO_ROOT / f"BENCH_{bench}.json"
        # Copy the committed store so the repo files are never written.
        scratch = BenchHistory(tmp_path)
        for entry in committed.read(bench):
            scratch.append(entry)
        before = len(scratch.read(bench))
        _, appended = scratch.record_file(source)
        assert not appended
        assert len(scratch.read(bench)) == before
