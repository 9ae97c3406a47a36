"""Noise-aware analytics over the benchmark history store.

Three consumers sit on top of :class:`~repro.obs.history.BenchHistory`:

- :func:`compare_entry` — the regression gate behind ``repro obs bench
  compare``: an adapter that hands a history entry's checks and raw
  per-repeat timing samples to the comparison core in
  :mod:`repro.obs.regress`. Deterministic check values (equivalence
  verdicts, unique counts, dedup totals) must match the latest
  comparable baseline **exactly** (exit 1); timings get the core's
  :func:`~repro.obs.regress.timing_decision` and *warn* (exit 2).
- :func:`trend_report` — rolling metric series (one point per history
  entry, timings as sample medians) with a sliding z-score
  :func:`detect_changepoints` pass that flags the entry — and therefore
  the commit — where a metric shifted.
- :func:`attribute_stages` — joins a bench-level slowdown to the
  per-stage ``search.serve.budget_seconds{stage=...}`` histograms of a
  serving RunReport, so "search got slower" becomes "execute got
  slower" (admission / schedule / execute / rank / respond).

Everything is plain stdlib math over plain dicts: no numpy in the
decision path, so the gate runs identically everywhere.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .history import BenchHistory, HistoryEntry
from .regress import RegressionReport, compare_exact, compare_timings, median

__all__ = [
    "BENCH_TIMING_TOL",
    "ENVIRONMENTAL_CHECK_MARKERS",
    "is_environmental_check",
    "compare_entry",
    "compare_history",
    "metric_names",
    "metric_series",
    "detect_changepoints",
    "trend_report",
    "render_trend",
    "render_markdown_table",
    "stage_budget_means",
    "attribute_stages",
    "render_attribution",
]

#: Ratio band for timings with too few samples for the interval test:
#: wide on purpose, so a 2x slowdown still trips and noise does not.
BENCH_TIMING_TOL = 0.5

#: Check-name substrings of host-dependent values (throughput, latency
#: quantiles, per-pass averages), which are never gated exactly.
ENVIRONMENTAL_CHECK_MARKERS: Tuple[str, ...] = ("seconds", "per_second")


def is_environmental_check(name: str) -> bool:
    """Bench check values that move with the host, not the code."""
    return any(marker in name for marker in ENVIRONMENTAL_CHECK_MARKERS)


# ---------------------------------------------------------------------------
# Regression gate: the bench-history adapter over repro.obs.regress


def _entry_label(entry: HistoryEntry) -> str:
    sha = (entry.git_sha or "unknown")[:12]
    return f"{entry.entry_id}@{sha}"


def _gated_checks(baseline: HistoryEntry, candidate: HistoryEntry) -> set:
    """Check names that must match exactly: recorded in the baseline,
    scalar-valued, and not host-dependent. A check the baseline never
    recorded has nothing to be exact against, so it is info."""
    gated = set()
    for name, value in baseline.checks.items():
        current = candidate.checks.get(name)
        reference = current if current is not None else value
        if not is_environmental_check(name) and isinstance(
            reference, (bool, int, float, str)
        ):
            gated.add(name)
    return gated


def compare_entry(
    history: Sequence[HistoryEntry],
    candidate: HistoryEntry,
    explicit: bool = False,
) -> RegressionReport:
    """Gate one entry against the latest comparable history entry.

    Comparable means: same bench, same config digest (quick-mode runs
    never gate full-mode history and vice versa), and not the candidate
    itself (so gating the newest recorded entry compares it against its
    predecessor).  ``explicit`` marks a candidate supplied from outside
    the history (``--candidate``): if its content digest already exists
    in the store it is an exact duplicate of a gated entry, which
    passes rather than reporting a missing baseline.

    Deterministic check drift is a finding (exit 1); a timing the
    verdict calls regressed is a warning (exit 2), because wall clocks
    are not comparable across hosts.
    """
    result = RegressionReport(
        subject=candidate.bench, current_id=_entry_label(candidate)
    )
    comparable = [
        entry
        for entry in history
        if entry.bench == candidate.bench
        and entry.config_key == candidate.config_key
        and entry.entry_id != candidate.entry_id
    ]
    if not comparable:
        # An explicit candidate that exactly duplicates a recorded
        # entry (same content digest) has nothing new to gate: that is
        # a pass, not a missing baseline.
        if explicit and any(
            entry.entry_id == candidate.entry_id for entry in history
        ):
            result.baseline_id = result.current_id
        return result
    baseline = comparable[-1]
    result.baseline_id = _entry_label(baseline)
    compare_exact(
        "check",
        baseline.checks,
        candidate.checks,
        _gated_checks(baseline, candidate),
        result,
    )

    def samples(entry: HistoryEntry) -> Dict[str, List[float]]:
        return {name: entry.sample_values(name) for name in entry.timings}

    compare_timings(
        samples(baseline),
        samples(candidate),
        BENCH_TIMING_TOL,
        result,
        result.warnings,
    )
    return result


def compare_history(
    history: BenchHistory,
    benches: Optional[Sequence[str]] = None,
    candidates: Optional[Dict[str, HistoryEntry]] = None,
) -> List[RegressionReport]:
    """Gate each bench's newest (or supplied candidate) entry.

    Without explicit ``candidates`` the newest recorded entry per bench
    is gated against its predecessor — the "did the run I just appended
    regress anything" CI shape.
    """
    names = list(benches) if benches else history.benches()
    results: List[RegressionReport] = []
    for name in names:
        entries = history.read(name)
        candidate = (candidates or {}).get(name)
        if candidate is None and not entries:
            results.append(RegressionReport(subject=name))
            continue
        results.append(
            compare_entry(
                entries,
                candidate if candidate is not None else entries[-1],
                explicit=candidate is not None,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Trends and changepoints


def metric_names(entries: Sequence[HistoryEntry]) -> List[str]:
    """All trendable metric names: ``timing:<variant>``, ``speedup:<label>``."""
    names = set()
    for entry in entries:
        names.update(f"timing:{variant}" for variant in entry.timings)
        names.update(f"speedup:{label}" for label in entry.speedups)
    return sorted(names)


def metric_series(
    entries: Sequence[HistoryEntry], metric: str
) -> List[Optional[float]]:
    """One value per entry (``None`` where absent). Timings use the
    sample median — the robust point — rather than the stored best-of
    aggregate, so a single lucky repeat does not bend the trend."""
    kind, _, name = metric.partition(":")
    series: List[Optional[float]] = []
    for entry in entries:
        if kind == "timing":
            samples = entry.sample_values(name)
            series.append(median(samples) if samples else None)
        elif kind == "speedup":
            value = entry.speedups.get(name)
            series.append(None if value is None else float(value))
        else:
            raise ValueError(
                f"unknown metric kind {kind!r} "
                "(expected 'timing:<variant>' or 'speedup:<label>')"
            )
    return series


def detect_changepoints(
    values: Sequence[Optional[float]],
    window: int = 5,
    z_threshold: float = 3.0,
    min_rel_shift: float = 0.25,
) -> List[int]:
    """Indices where a series shifts away from its recent level.

    A simple sliding z-score detector: each point is compared against
    the mean/std of up to ``window`` preceding non-``None`` points and
    flagged when its deviation exceeds **both** ``z_threshold`` sigmas
    and ``min_rel_shift`` of the recent level. The relative floor keeps
    near-constant series (std → 0) from flagging measurement jitter,
    so only genuine level shifts — the commit where a metric moved —
    are reported.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    flagged: List[int] = []
    for index, value in enumerate(values):
        if value is None:
            continue
        prior = [
            v for v in values[max(0, index - window) : index] if v is not None
        ]
        if len(prior) < 2:
            continue
        mean = sum(prior) / len(prior)
        variance = sum((v - mean) ** 2 for v in prior) / len(prior)
        std = math.sqrt(variance)
        deviation = abs(value - mean)
        threshold = max(z_threshold * std, min_rel_shift * abs(mean), 1e-12)
        if deviation > threshold:
            flagged.append(index)
    return flagged


def trend_report(
    entries: Sequence[HistoryEntry],
    window: int = 5,
    z_threshold: float = 3.0,
    min_rel_shift: float = 0.25,
) -> Dict[str, object]:
    """Series + changepoints for every metric of one bench's history."""
    points = [
        {
            "entry_id": entry.entry_id,
            "git_sha": entry.git_sha,
            "created_at": entry.created_at,
            "config_key": entry.config_key,
        }
        for entry in entries
    ]
    metrics: Dict[str, object] = {}
    for name in metric_names(entries):
        series = metric_series(entries, name)
        metrics[name] = {
            "values": series,
            "changepoints": detect_changepoints(
                series,
                window=window,
                z_threshold=z_threshold,
                min_rel_shift=min_rel_shift,
            ),
        }
    return {
        "schema_version": 1,
        "kind": "repro-bench-trend",
        "bench": entries[0].bench if entries else "",
        "points": points,
        "metrics": metrics,
    }


def render_trend(report: Dict[str, object]) -> str:
    """Terminal view of one bench's trend report."""
    lines = [
        f"== bench trend: {report.get('bench') or '(empty)'} "
        f"({len(report.get('points', []))} entr{'y' if len(report.get('points', [])) == 1 else 'ies'}) =="
    ]
    points = report.get("points", [])
    metrics = report.get("metrics", {})
    for name in sorted(metrics):
        entry = metrics[name]
        values = entry["values"]
        changepoints = set(entry["changepoints"])
        rendered = []
        for index, value in enumerate(values):
            text = "-" if value is None else f"{value:.6g}"
            if index in changepoints:
                text += "*"
            rendered.append(text)
        lines.append(f"{name}: {' -> '.join(rendered)}")
        for index in sorted(changepoints):
            sha = str(points[index].get("git_sha", "?"))[:12]
            lines.append(
                f"  changepoint at entry {index} "
                f"(commit {sha}, {points[index].get('created_at', '?')})"
            )
    if len(lines) == 1:
        lines.append("(no recorded metrics)")
    return "\n".join(lines)


def render_markdown_table(history: BenchHistory) -> str:
    """The README performance table, generated from the history store.

    One row per speedup label of each bench's newest entry, so the
    README numbers are always traceable to a recorded, provenance-
    stamped history point instead of hand-transcribed.
    """
    lines = [
        "| bench | speedup | ratio | commit |",
        "|---|---|---|---|",
    ]
    for bench in history.benches():
        entry = history.latest(bench)
        if entry is None:
            continue
        sha = (entry.git_sha or "unknown")[:12]
        for label in sorted(entry.speedups):
            lines.append(
                f"| `{bench}` | `{label}` | "
                f"~{entry.speedups[label]:.1f}x | `{sha}` |"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Stage-level slowdown attribution


def stage_budget_means(report) -> Dict[str, float]:
    """Mean seconds per serving stage from a RunReport's
    ``search.serve.budget_seconds{stage=...}`` histograms.

    Returns an empty dict for reports without serving telemetry (batch
    runs that never served).
    """
    from .export import split_metric_key

    means: Dict[str, float] = {}
    for key, histogram in report.metrics.histograms.items():
        name, labels = split_metric_key(key)
        if name != "search.serve.budget_seconds" or "stage" not in labels:
            continue
        count = getattr(histogram, "count", 0)
        if count:
            means[labels["stage"]] = histogram.total / count
    return means


def attribute_stages(baseline_report, current_report) -> List[Dict[str, object]]:
    """Per-stage latency deltas between two serving RunReports.

    The answer to "the search bench got slower — *which stage*": each
    row names a stage (admission / schedule / execute / rank / ...),
    its mean per-request seconds in both reports, the delta, and the
    delta's share of the total slowdown. Rows are sorted most-guilty
    first. Empty when either report lacks budget histograms.
    """
    base = stage_budget_means(baseline_report)
    current = stage_budget_means(current_report)
    if not base or not current:
        return []
    rows = []
    total_delta = sum(
        current.get(stage, 0.0) - base.get(stage, 0.0)
        for stage in set(base) | set(current)
    )
    for stage in sorted(set(base) | set(current)):
        base_mean = base.get(stage, 0.0)
        cur_mean = current.get(stage, 0.0)
        delta = cur_mean - base_mean
        rows.append(
            {
                "stage": stage,
                "baseline_mean_seconds": base_mean,
                "current_mean_seconds": cur_mean,
                "delta_seconds": delta,
                "share_of_total_delta": (
                    delta / total_delta if total_delta else 0.0
                ),
            }
        )
    rows.sort(key=lambda row: row["delta_seconds"], reverse=True)
    return rows


def render_attribution(rows: Sequence[Dict[str, object]]) -> str:
    if not rows:
        return "(no per-stage budget histograms to attribute against)"
    lines = ["stage attribution (mean seconds/request, most-guilty first):"]
    for row in rows:
        lines.append(
            f"  {row['stage']:<12s} "
            f"{row['baseline_mean_seconds']:.6f}s -> "
            f"{row['current_mean_seconds']:.6f}s "
            f"(delta {row['delta_seconds']:+.6f}s, "
            f"{row['share_of_total_delta']:+.0%} of total)"
        )
    return "\n".join(lines)
