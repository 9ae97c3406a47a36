"""Archive of known-good RunReports, keyed by workload identity.

The regression watchdog needs something to compare against: this module
stores schema-versioned :class:`~repro.obs.report.RunReport` files under
``results/obs/baselines/<spec-key>/``, where the spec key is the
:class:`~repro.platforms.runspec.RunSpec` stem plus a short digest of
its canonical payload (the digest guards against stem collisions if the
stem format ever changes). Within a key directory, files sort by their
``created_at`` timestamp and carry the producing commit in the name::

    results/obs/baselines/
      GMN-Li_AIDS_p4_b4_s0_quick-1a2b3c4d/
        spec.json                       # the RunSpec payload, for listing
        20260807T120000Z_5e28449.json   # one archived RunReport each

A retention policy bounds growth: :meth:`BaselineStore.save` prunes the
oldest entries beyond ``retain`` after every write, so a CI job that
baselines every merge cannot grow the directory without bound.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from .report import RunReport

if TYPE_CHECKING:
    from ..platforms.runspec import RunSpec

__all__ = [
    "BaselineStore",
    "DEFAULT_BASELINE_DIR",
    "DEFAULT_RETAIN",
    "spec_key",
]

DEFAULT_BASELINE_DIR = Path("results") / "obs" / "baselines"

#: Default number of baselines kept per spec key.
DEFAULT_RETAIN = 20

#: Timestamp used in file names when a report has no created_at.
_EPOCH_STAMP = "00000000T000000Z"


def spec_key(spec: "RunSpec") -> str:
    """Directory name for one workload identity: stem + payload digest."""
    canonical = json.dumps(
        spec.to_dict(), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]
    return f"{spec.stem}-{digest}"


def _sortable_stamp(created_at: Optional[str]) -> str:
    """created_at compacted to a filename-safe, lexically sortable form."""
    if not created_at:
        return _EPOCH_STAMP
    compact = re.sub(r"[^0-9TZ]", "", created_at)
    return compact or _EPOCH_STAMP


class BaselineStore:
    """Filesystem-backed archive of baseline RunReports."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else DEFAULT_BASELINE_DIR

    # -- writing -------------------------------------------------------
    def save(
        self,
        report: RunReport,
        retain: int = DEFAULT_RETAIN,
    ) -> Path:
        """Archive a report as the newest baseline for its spec.

        Returns the written path. Requires a keyed report (``spec`` set)
        — an unkeyed baseline could never be matched to a fresh run.
        """
        if report.spec is None:
            raise ValueError("cannot baseline an unkeyed RunReport (spec=None)")
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        directory = self.root / spec_key(report.spec)
        directory.mkdir(parents=True, exist_ok=True)
        spec_path = directory / "spec.json"
        if not spec_path.exists():
            with open(spec_path, "w") as handle:
                json.dump(report.spec.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        sha = (report.git_sha or "unknown")[:10]
        stem = f"{_sortable_stamp(report.created_at)}_{sha}"
        path = directory / f"{stem}.json"
        suffix = 0
        while path.exists():
            suffix += 1
            path = directory / f"{stem}-{suffix}.json"
        report.write(path)
        self.prune(report.spec, keep=retain)
        return path

    def prune(self, spec: "RunSpec", keep: int = DEFAULT_RETAIN) -> List[Path]:
        """Delete the oldest baselines beyond ``keep``; returns removed paths."""
        history = self.history(spec)
        removed = []
        for path in history[: max(0, len(history) - keep)]:
            path.unlink()
            removed.append(path)
        return removed

    # -- reading -------------------------------------------------------
    def history(self, spec: "RunSpec") -> List[Path]:
        """All baseline files for a spec, oldest first."""
        directory = self.root / spec_key(spec)
        if not directory.is_dir():
            return []
        return sorted(
            path for path in directory.glob("*.json") if path.name != "spec.json"
        )

    def latest_path(self, spec: "RunSpec") -> Optional[Path]:
        history = self.history(spec)
        return history[-1] if history else None

    def latest(self, spec: "RunSpec") -> Optional[RunReport]:
        """The newest archived baseline for a spec, or ``None``."""
        path = self.latest_path(spec)
        return RunReport.load(path) if path is not None else None

    def specs(self) -> Dict[str, "RunSpec"]:
        """All archived workload identities, ``{spec_key: RunSpec}``.

        Key directories whose ``spec.json`` is missing or unreadable are
        skipped — a half-deleted entry should not break the dashboard.
        """
        from ..platforms.runspec import RunSpec

        found: Dict[str, RunSpec] = {}
        if not self.root.is_dir():
            return found
        for directory in sorted(self.root.iterdir()):
            spec_path = directory / "spec.json"
            if not spec_path.is_file():
                continue
            try:
                with open(spec_path) as handle:
                    found[directory.name] = RunSpec.from_dict(json.load(handle))
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                continue
        return found

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BaselineStore(root={str(self.root)!r})"
