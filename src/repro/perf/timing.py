"""Wall-clock instrumentation and machine-readable bench reports.

Every performance claim in this repository is backed by a
``BENCH_<name>.json`` file written through :class:`BenchReport`, so the
perf trajectory can be tracked across revisions by diffing two JSON
files instead of re-reading log output.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

__all__ = [
    "StageTimer",
    "time_stage",
    "BenchReport",
    "BENCH_SCHEMA_VERSION",
    "SUPPORTED_BENCH_SCHEMA_VERSIONS",
]

# v1 (implicit — the key is absent from legacy files): name + platform +
# provenance + config + timings + speedups + checks, timings holding one
# aggregate (best-of) second count per variant. v2 adds "schema_version",
# "samples" (the raw per-repeat wall-clock readings each aggregate was
# derived from) and "repeats", so downstream comparison can run a real
# statistical test instead of a single-number ratio. Only v2 is read;
# the committed v1 files were migrated with empty samples.
BENCH_SCHEMA_VERSION = 2
SUPPORTED_BENCH_SCHEMA_VERSIONS = (BENCH_SCHEMA_VERSION,)


class StageTimer:
    """Accumulates wall-clock seconds per named stage.

    Stages repeat (e.g. one ``profile`` entry per batch); the timer
    records totals and call counts so per-call averages can be derived.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    def record(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in sorted(self.seconds)
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stages = ", ".join(
            f"{name}={self.seconds[name]:.3f}s" for name in sorted(self.seconds)
        )
        return f"StageTimer({stages})"


@contextmanager
def time_stage(timer: Optional[StageTimer], name: str) -> Iterator[None]:
    """`timer.stage(name)` that tolerates ``timer=None`` (no-op)."""
    if timer is None:
        yield
    else:
        with timer.stage(name):
            yield


class BenchReport:
    """One benchmark's machine-readable outcome.

    ``write()`` produces ``BENCH_<name>.json`` with a stable layout::

        {
          "schema_version": 2,
          "name": ...,
          "platform": {"python": ..., "machine": ..., "cpus": ...},
          "provenance": {...},      # git sha, timestamp, metrics digest
          "config": {...},          # benchmark parameters
          "timings": {...},         # seconds per measured variant
          "samples": {...},         # raw per-repeat seconds per variant
          "repeats": ...,           # requested timing repeats
          "speedups": {...},        # derived ratios
          "checks": {...}           # equivalence verdicts, counts, ...
        }

    The provenance stamp uses the same schema as RunReport baselines
    (see :mod:`repro.obs.provenance`), so a BENCH file can be matched to
    the baseline-store entries produced at the same commit.
    """

    def __init__(self, name: str, config: Optional[Dict] = None) -> None:
        self.name = name
        self.config: Dict = dict(config or {})
        self.timings: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.repeats: Optional[int] = None
        self.speedups: Dict[str, float] = {}
        self.checks: Dict = {}
        # Populated by from_dict so a loaded report round-trips with the
        # stamp it was written under instead of minting a fresh one.
        self._loaded_provenance: Optional[Dict] = None
        self._loaded_platform: Optional[Dict] = None

    def add_timing(
        self,
        variant: str,
        seconds: float,
        samples: Optional[Sequence[float]] = None,
    ) -> None:
        """Record a variant's aggregate seconds (and raw repeats).

        ``samples`` is the full list of per-repeat wall-clock readings
        the aggregate was derived from; retaining it lets consumers run
        median/MAD statistics instead of trusting one number.
        """
        self.timings[variant] = float(seconds)
        if samples is not None:
            self.samples[variant] = [float(value) for value in samples]

    def add_speedup(self, label: str, baseline: str, improved: str) -> None:
        missing = [
            variant
            for variant in (baseline, improved)
            if variant not in self.timings
        ]
        if missing:
            raise ValueError(
                f"speedup {label!r} references unrecorded timing variant(s) "
                f"{missing}; recorded: {sorted(self.timings)}"
            )
        slow = self.timings[baseline]
        fast = self.timings[improved]
        self.speedups[label] = float(slow / fast) if fast > 0 else float("inf")

    def as_dict(self) -> Dict:
        from ..obs.metrics import get_metrics
        from ..obs.provenance import make_stamp

        if self._loaded_provenance is not None:
            stamp = dict(self._loaded_provenance)
        else:
            registry = get_metrics()
            stamp = make_stamp(
                metrics=registry.as_dict() if registry is not None else None,
                generator=f"repro.perf.bench:{self.name}",
            )
        if self._loaded_platform is not None:
            host = dict(self._loaded_platform)
        else:
            host = {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "cpus": os.cpu_count() or 1,
            }
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "name": self.name,
            "platform": host,
            "provenance": stamp,
            "config": self.config,
            "timings": self.timings,
            "samples": {
                variant: list(values)
                for variant, values in self.samples.items()
            },
            "repeats": self.repeats,
            "speedups": self.speedups,
            "checks": self.checks,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "BenchReport":
        """Load a ``BENCH_<name>.json`` payload.

        Any version but :data:`BENCH_SCHEMA_VERSION` is rejected loudly
        rather than misread.
        """
        if not isinstance(payload, dict):
            raise ValueError("BenchReport payload is not a JSON object")
        version = payload.get("schema_version")
        if version not in SUPPORTED_BENCH_SCHEMA_VERSIONS:
            raise ValueError(
                f"unsupported BenchReport schema version {version!r} "
                f"(this build reads version {BENCH_SCHEMA_VERSION}; a file "
                "without one is a legacy v1 file — re-run its bench to "
                "regenerate it — and a newer version means the file was "
                "written by a newer repro — upgrade to read it)"
            )
        if "name" not in payload or "timings" not in payload:
            raise ValueError(
                "BenchReport payload is missing required key(s) "
                "'name'/'timings' — not a BENCH_*.json file?"
            )
        report = cls(str(payload["name"]), config=payload.get("config"))
        report.timings = {
            str(k): float(v) for k, v in payload["timings"].items()
        }
        report.samples = {
            str(k): [float(v) for v in values]
            for k, values in (payload.get("samples") or {}).items()
        }
        raw_repeats = payload.get("repeats")
        report.repeats = None if raw_repeats is None else int(raw_repeats)
        report.speedups = {
            str(k): float(v)
            for k, v in (payload.get("speedups") or {}).items()
        }
        report.checks = dict(payload.get("checks") or {})
        loaded_prov = payload.get("provenance")
        report._loaded_provenance = (
            dict(loaded_prov) if isinstance(loaded_prov, dict) else None
        )
        loaded_platform = payload.get("platform")
        report._loaded_platform = (
            dict(loaded_platform)
            if isinstance(loaded_platform, dict)
            else None
        )
        return report

    def write(self, directory: Union[str, Path] = ".") -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.name}.json"
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
