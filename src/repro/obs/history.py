"""Append-only benchmark history: every bench run becomes a point.

The repository's headline performance numbers (``BENCH_emf.json``,
``BENCH_harness.json``, ``BENCH_search.json``) used to be single
overwritten snapshots — the perf *trajectory* was invisible, and
"did this PR get slower?" was answered by eyeballing a ratio. The
:class:`BenchHistory` store fixes that the way the paper treats its
evaluation: every :class:`~repro.perf.timing.BenchReport` is ingested
as a schema-versioned :class:`HistoryEntry` appended to
``results/obs/bench_history/<bench>.jsonl``, keyed by bench name, a
digest of the benchmark config, and the provenance stamp (git SHA +
timestamp) it was produced under.

Properties the store guarantees:

- **Append-only.** Entries are one JSONL line each; nothing is ever
  rewritten in place, so the file is also the audit log.
- **Idempotent ingestion.** An entry's ``entry_id`` is a content
  digest; re-recording the same BENCH file is a no-op, which makes the
  ``BENCH_*.json`` migration safe to re-run.
- **Honest about damage.** Truncated or malformed lines (a crashed
  writer) are skipped and counted, never crash a read; a *valid* line
  carrying an unknown (newer) schema version is rejected loudly so old
  readers never misinterpret new data.

The analytics layer (:mod:`repro.obs.analytics`) reads this store to
run noise-aware regression gates, trend series, and changepoint
detection; ``repro obs bench record|compare|trend`` is the CLI surface.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "HISTORY_ENTRY_KIND",
    "DEFAULT_HISTORY_DIR",
    "HistoryEntry",
    "BenchHistory",
    "config_digest",
]

HISTORY_SCHEMA_VERSION = 1
HISTORY_ENTRY_KIND = "repro-bench-history-entry"

#: Default store location, relative to the working directory (the same
#: convention as ``results/obs/baselines``).
DEFAULT_HISTORY_DIR = Path("results") / "obs" / "bench_history"

logger = logging.getLogger("repro.obs.history")


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_digest(config: Optional[Dict]) -> str:
    """Short stable digest of a benchmark config dict.

    Entries are only comparable when their benchmark parameters match
    (quick vs. full sizes, worker counts, ...); the digest is the
    grouping key the analytics layer uses to pick comparable history.
    """
    return hashlib.sha256(
        _canonical(config or {}).encode("utf-8")
    ).hexdigest()[:16]


@dataclass(frozen=True)
class HistoryEntry:
    """One benchmark run, as persisted in the history store.

    The fields mirror a :class:`~repro.perf.timing.BenchReport` payload
    (aggregate ``timings``, raw per-repeat ``samples``, derived
    ``speedups``, equivalence ``checks``) plus the identity needed to
    place the point on a timeline: the provenance stamp's ``git_sha``
    and ``created_at``, and the ``config`` digest that scopes which
    other entries it may be compared against.
    """

    bench: str
    entry_id: str
    config: Dict = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    repeats: Optional[int] = None
    speedups: Dict[str, float] = field(default_factory=dict)
    checks: Dict = field(default_factory=dict)
    platform: Dict = field(default_factory=dict)
    git_sha: str = "unknown"
    created_at: str = ""
    generator: str = ""

    @property
    def config_key(self) -> str:
        return config_digest(self.config)

    def sample_values(self, variant: str) -> List[float]:
        """Raw repeat readings for a variant; the aggregate timing is
        the (single-sample) fallback for legacy entries recorded before
        the BenchReport schema retained samples."""
        values = self.samples.get(variant)
        if values:
            return list(values)
        if variant in self.timings:
            return [float(self.timings[variant])]
        return []

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": HISTORY_SCHEMA_VERSION,
            "kind": HISTORY_ENTRY_KIND,
            "bench": self.bench,
            "entry_id": self.entry_id,
            "config": dict(self.config),
            "timings": dict(self.timings),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "repeats": self.repeats,
            "speedups": dict(self.speedups),
            "checks": dict(self.checks),
            "platform": dict(self.platform),
            "git_sha": self.git_sha,
            "created_at": self.created_at,
            "generator": self.generator,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "HistoryEntry":
        if not isinstance(payload, dict):
            raise ValueError("history entry is not a JSON object")
        version = payload.get("schema_version")
        if version != HISTORY_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported bench-history schema version {version!r} "
                f"(this build supports version {HISTORY_SCHEMA_VERSION}; "
                "a newer version means the history was written by a newer "
                "repro — upgrade to read it)"
            )
        if payload.get("kind") != HISTORY_ENTRY_KIND:
            raise ValueError(
                f"kind is {payload.get('kind')!r}, "
                f"not {HISTORY_ENTRY_KIND!r}"
            )
        for key in ("bench", "entry_id", "timings"):
            if key not in payload:
                raise ValueError(f"history entry is missing key {key!r}")
        raw_repeats = payload.get("repeats")
        return cls(
            bench=str(payload["bench"]),
            entry_id=str(payload["entry_id"]),
            config=dict(payload.get("config") or {}),
            timings={
                str(k): float(v) for k, v in payload["timings"].items()
            },
            samples={
                str(k): [float(v) for v in values]
                for k, values in (payload.get("samples") or {}).items()
            },
            repeats=None if raw_repeats is None else int(raw_repeats),
            speedups={
                str(k): float(v)
                for k, v in (payload.get("speedups") or {}).items()
            },
            checks=dict(payload.get("checks") or {}),
            platform=dict(payload.get("platform") or {}),
            git_sha=str(payload.get("git_sha") or "unknown"),
            created_at=str(payload.get("created_at") or ""),
            generator=str(payload.get("generator") or ""),
        )

    # -- ingestion ---------------------------------------------------------
    @classmethod
    def from_bench_report(cls, payload: Dict[str, object]) -> "HistoryEntry":
        """Build an entry from a ``BENCH_*.json`` payload.

        Goes through :meth:`BenchReport.from_dict
        <repro.perf.timing.BenchReport.from_dict>` so the schema check
        (and its unknown-version error) lives in one place.
        The ``entry_id`` is a digest of the whole normalized payload:
        the same file ingests to the same id every time, which is what
        makes :meth:`BenchHistory.append` idempotent.
        """
        from ..perf.timing import BenchReport

        report = BenchReport.from_dict(payload)
        stamp = payload.get("provenance")
        stamp = stamp if isinstance(stamp, dict) else {}
        body = {
            "bench": report.name,
            "config": report.config,
            "timings": report.timings,
            "samples": report.samples,
            "repeats": report.repeats,
            "speedups": report.speedups,
            "checks": report.checks,
            "platform": payload.get("platform") or {},
            "git_sha": str(stamp.get("git_sha") or "unknown"),
            "created_at": str(stamp.get("created_at") or ""),
            "generator": str(stamp.get("generator") or ""),
        }
        entry_id = hashlib.sha256(
            _canonical(body).encode("utf-8")
        ).hexdigest()[:16]
        return cls(
            bench=body["bench"],
            entry_id=entry_id,
            config=body["config"],
            timings=body["timings"],
            samples=body["samples"],
            repeats=body["repeats"],
            speedups=body["speedups"],
            checks=body["checks"],
            platform=dict(body["platform"]),
            git_sha=body["git_sha"],
            created_at=body["created_at"],
            generator=body["generator"],
        )


class BenchHistory:
    """The on-disk append-only store: one JSONL file per bench name."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else DEFAULT_HISTORY_DIR
        #: Malformed lines skipped by the most recent :meth:`read`.
        self.last_skipped = 0

    def path_for(self, bench: str) -> Path:
        if not bench or "/" in bench or bench.startswith("."):
            raise ValueError(f"invalid bench name {bench!r}")
        return self.root / f"{bench}.jsonl"

    def benches(self) -> List[str]:
        """Bench names with recorded history, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.root.glob("*.jsonl")
            if path.is_file()
        )

    # -- reading -----------------------------------------------------------
    def read(self, bench: str) -> List[HistoryEntry]:
        """All entries for a bench, in append (chronological) order.

        Truncated/malformed JSONL lines — the residue of a crashed
        writer — are skipped and counted (``last_skipped``), with one
        warning naming the file. A syntactically valid line with an
        unknown schema version still raises: that is a version-skew
        problem, not file damage.
        """
        path = self.path_for(bench)
        self.last_skipped = 0
        if not path.is_file():
            return []
        entries: List[HistoryEntry] = []
        for line_number, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                self.last_skipped += 1
                continue
            entries.append(HistoryEntry.from_dict(payload))
        if self.last_skipped:
            logger.warning(
                "skipped %d malformed line(s) in %s (truncated write?)",
                self.last_skipped,
                path,
            )
        return entries

    def latest(self, bench: str) -> Optional[HistoryEntry]:
        entries = self.read(bench)
        return entries[-1] if entries else None

    def ids(self, bench: str) -> set:
        return {entry.entry_id for entry in self.read(bench)}

    # -- writing -----------------------------------------------------------
    def append(
        self, payload: Union[HistoryEntry, Dict[str, object]]
    ) -> Tuple[HistoryEntry, bool]:
        """Append one bench run; returns ``(entry, appended)``.

        ``payload`` may be a ready :class:`HistoryEntry` or a raw
        ``BENCH_*.json`` dict (ingested via :meth:`from_bench_report`).
        Appending an entry whose ``entry_id`` is already on file is a
        no-op (``appended=False``) — the idempotency that makes the
        committed-BENCH migration and CI re-runs safe.
        """
        entry = (
            payload
            if isinstance(payload, HistoryEntry)
            else HistoryEntry.from_bench_report(payload)
        )
        if entry.entry_id in self.ids(entry.bench):
            return entry, False
        path = self.path_for(entry.bench)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as handle:
            handle.write(_canonical(entry.to_dict()))
            handle.write("\n")
        return entry, True

    def record_file(self, path: Union[str, Path]) -> Tuple[HistoryEntry, bool]:
        """Ingest one ``BENCH_*.json`` file (the migration path)."""
        with open(path) as handle:
            payload = json.load(handle)
        return self.append(payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BenchHistory(root={self.root})"
