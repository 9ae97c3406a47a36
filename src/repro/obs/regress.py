"""The one comparison core behind ``obs diff``, ``obs check`` and
``obs bench compare``.

The CEGMA reproduction is deterministic where it matters: for a fixed
:class:`~repro.platforms.runspec.RunSpec`, the simulator's DRAM traffic,
MAC counts, cycle counts, EMF duplicate statistics, and CGC scheduling
decisions are pure functions of the code. A refactor that silently
changes ``sim.dram.read_bytes`` is therefore a correctness event, not
noise — those values must match a baseline **exactly**. Wall-clock
timings, by contrast, are environmental and get a timing verdict
instead.

Every comparison in the repo reduces to two routines over plain
``{name: value}`` maps, both filling one :class:`RegressionReport`:

- :func:`compare_exact` — the exact-match loop; the caller says which
  names are deterministic (drift there is a finding, elsewhere info);
- :func:`compare_timings` — one :func:`timing_decision` per timing:
  median ± k·MAD interval test with enough samples, else a ratio band
  at the caller's tolerance (no tolerance: information only).

The adapters only build those maps: :func:`compare_reports` from two
RunReports (``obs check``, and ``obs diff``, which prints the same
comparison and never gates), and
:func:`~repro.obs.analytics.compare_entry` from bench-history entries
(``obs bench compare``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from .report import RunReport

__all__ = [
    "DETERMINISTIC_PREFIXES",
    "SERVING_DETERMINISTIC_PREFIXES",
    "MIN_SAMPLES",
    "MIN_EFFECT",
    "MAD_K",
    "REGRESSION_SCHEMA_VERSION",
    "REGRESSION_KIND",
    "Finding",
    "RegressionReport",
    "is_deterministic",
    "median",
    "mad",
    "timing_decision",
    "compare_exact",
    "compare_timings",
    "compare_reports",
]

# v1 held findings + infos of a RunReport check. v2 is the one report
# of every comparison: subject, warnings, status and exit code added.
REGRESSION_SCHEMA_VERSION = 2
REGRESSION_KIND = "repro-regression-report"

#: Serving counters that are pure functions of (code, stream): how many
#: requests were admitted/rejected at a given queue depth, how many the
#: scheduler deduplicated, how many candidate scorings the executor
#: broadcast, and how many batches a policy built. Deadline-dependent
#: serving metrics (``expired``, ``responses{status=}``), the live
#: ``queue_depth`` gauge, and the wall-clock latency/budget histograms
#: stay environmental — they move with the host, not the code.
SERVING_DETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "search.serve.admitted",
    "search.serve.rejected",
    "search.serve.batches",
    "search.serve.deduped_requests",
    "search.serve.candidate_dedup_hits",
)

#: Metric-name prefixes whose values are pure functions of (code, spec).
#: Everything else — memo/disk-cache hit counters, worker-failure
#: counts — depends on the environment and is reported informationally.
DETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "sim.",
    "emf.",
    "cgc.",
    "dram.",
    "pe.",
) + SERVING_DETERMINISTIC_PREFIXES

#: Samples per side from which the interval test replaces the ratio band.
MIN_SAMPLES = 3
#: Smallest relative median shift the interval test may call.
MIN_EFFECT = 0.10
#: Interval half-width in MAD-derived standard errors.
MAD_K = 3.0
#: Consistency constant relating MAD to the standard deviation of a
#: normal distribution (sigma ~= 1.4826 * MAD).
_MAD_SIGMA = 1.4826


def is_deterministic(name: str) -> bool:
    """Whether a RunReport metric must match its baseline exactly."""
    return name.startswith(DETERMINISTIC_PREFIXES)


@dataclass(frozen=True)
class Finding:
    """One compared value that differs (a finding, warning or info)."""

    kind: str  # counter | gauge | histogram | timing | spec | commit | check
    name: str
    baseline: object
    current: object
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "baseline": self.baseline,
            "current": self.current,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        return cls(
            kind=str(payload["kind"]),
            name=str(payload["name"]),
            baseline=payload.get("baseline"),
            current=payload.get("current"),
            detail=str(payload.get("detail", "")),
        )

    def render(self) -> str:
        text = (
            f"[{self.kind}] {self.name}: "
            f"baseline={self.baseline} current={self.current}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class RegressionReport:
    """Outcome of one comparison of a current measurement with a baseline.

    ``findings`` fail (exit 1); ``warnings`` — statistical timing
    regressions — and a missing baseline (``baseline_id is None``)
    exit 2; ``infos`` are observations that never change the exit code.
    """

    subject: str = ""
    baseline_id: Optional[str] = None
    current_id: str = ""
    findings: List[Finding] = field(default_factory=list)
    warnings: List[Finding] = field(default_factory=list)
    infos: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def status(self) -> str:
        if self.findings:
            return "regressed"
        if self.baseline_id is None:
            return "no-baseline"
        return "warned" if self.warnings else "ok"

    @property
    def exit_code(self) -> int:
        return {"regressed": 1, "no-baseline": 2, "warned": 2}.get(
            self.status, 0
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": REGRESSION_SCHEMA_VERSION,
            "kind": REGRESSION_KIND,
            "subject": self.subject,
            "baseline_id": self.baseline_id,
            "current_id": self.current_id,
            "status": self.status,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "findings": [item.to_dict() for item in self.findings],
            "warnings": [item.to_dict() for item in self.warnings],
            "infos": [item.to_dict() for item in self.infos],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RegressionReport":
        version = payload.get("schema_version")
        if version != REGRESSION_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RegressionReport schema version {version!r} "
                f"(this build reads version {REGRESSION_SCHEMA_VERSION}; "
                "re-run the comparison with this build, or upgrade repro "
                "if the report came from a newer one)"
            )
        if payload.get("kind") != REGRESSION_KIND:
            raise ValueError(
                f"kind is {payload.get('kind')!r}, not {REGRESSION_KIND!r}"
            )
        baseline_id = payload.get("baseline_id")

        def section(name: str) -> List[Finding]:
            return [Finding.from_dict(item) for item in payload.get(name, [])]

        return cls(
            subject=str(payload.get("subject", "")),
            baseline_id=None if baseline_id is None else str(baseline_id),
            current_id=str(payload.get("current_id", "")),
            findings=section("findings"),
            warnings=section("warnings"),
            infos=section("infos"),
        )

    def render(self) -> str:
        lines = [
            f"== {self.subject or 'compare'}: {self.current_id or 'current'} "
            f"vs {self.baseline_id or 'no baseline'} =="
        ]
        if self.baseline_id is None:
            lines.append("NO BASELINE: no baseline recorded to compare against")
        elif self.status == "ok":
            lines.append("OK: all deterministic metrics match the baseline")
        sections = (
            ("REGRESSIONS", self.findings),
            ("timing warnings", self.warnings),
            ("info", self.infos),
        )
        for title, items in sections:
            if items:
                lines.append(f"{title} ({len(items)}):")
                lines.extend(f"  {item.render()}" for item in items)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Timing verdict


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(float(v) for v in values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation — the robust spread estimate."""
    center = median(values)
    return median([abs(float(v) - center) for v in values])


def _interval(values: Sequence[float]) -> Tuple[float, float]:
    """(lo, hi): a median ± k·sigma_MAD/sqrt(n) interval."""
    center = median(values)
    half = MAD_K * _MAD_SIGMA * mad(values) / math.sqrt(len(values))
    return center - half, center + half


def timing_decision(
    baseline: Sequence[float],
    current: Sequence[float],
    tol: Optional[float] = None,
) -> Dict[str, object]:
    """Verdict on one timing: ``regressed``/``improved``/``ok``/``info``.

    With at least :data:`MIN_SAMPLES` raw samples on both sides the test
    is interval overlap: *regressed* only when the current median
    exceeds the baseline median by more than :data:`MIN_EFFECT`
    (relative) **and** the two median ± k·MAD/√n intervals are
    disjoint — so a byte-identical rerun can never be flagged, and
    repeat-to-repeat noise widens the intervals until it silences
    itself. *improved* is the symmetric verdict. With fewer samples a
    relative drift beyond ``tol`` is called, in either direction; with
    ``tol=None`` the drift is only reported (``info``). An empty side
    or a non-positive baseline is ``no-data``.
    """
    base = [float(v) for v in baseline]
    cur = [float(v) for v in current]
    if not base or not cur or median(base) <= 0.0:
        return {"decision": "no-data", "method": "none"}
    ratio = median(cur) / median(base)
    effect = ratio - 1.0
    result: Dict[str, object] = {
        "baseline_median": median(base),
        "current_median": median(cur),
        "baseline_n": len(base),
        "current_n": len(cur),
        "effect": effect,
    }
    if len(base) >= MIN_SAMPLES and len(cur) >= MIN_SAMPLES:
        base_lo, base_hi = _interval(base)
        cur_lo, cur_hi = _interval(cur)
        result["method"] = "ci-overlap"
        slower = effect > MIN_EFFECT and cur_lo > base_hi
        faster = effect < -MIN_EFFECT and cur_hi < base_lo
    else:
        result["method"] = "ratio-fallback"
        if tol is None:
            result["decision"] = "info"
            return result
        slower = effect > tol
        faster = ratio < 1.0 / (1.0 + tol)
    result["decision"] = (
        "regressed" if slower else "improved" if faster else "ok"
    )
    return result


# ---------------------------------------------------------------------------
# The two comparison routines


def compare_exact(
    kind: str,
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    deterministic: Collection[str],
    report: RegressionReport,
) -> None:
    """Exact comparison of two ``{name: value}`` maps.

    A name in ``deterministic`` that drifts, vanishes or appears is a
    finding; any other difference is info.
    """
    for name in sorted(set(baseline) | set(current)):
        sink = report.findings if name in deterministic else report.infos
        if name not in current:
            sink.append(
                Finding(kind, name, baseline[name], None, "missing from run")
            )
        elif name not in baseline:
            sink.append(
                Finding(kind, name, None, current[name], "not in baseline")
            )
        elif baseline[name] != current[name]:
            sink.append(Finding(kind, name, baseline[name], current[name]))


def compare_timings(
    baseline: Mapping[str, Sequence[float]],
    current: Mapping[str, Sequence[float]],
    tol: Optional[float],
    report: RegressionReport,
    regressions: List[Finding],
) -> None:
    """One :func:`timing_decision` per timing name.

    A ``regressed`` verdict lands in ``regressions`` (the adapter picks
    ``report.findings`` or ``report.warnings``); any other drift, and a
    timing present on one side only, is info.
    """
    for name in sorted(set(baseline) | set(current)):
        if name not in current or name not in baseline:
            base = median(baseline[name]) if name in baseline else None
            cur = median(current[name]) if name in current else None
            side = "run" if name in baseline else "baseline"
            report.infos.append(
                Finding("timing", name, base, cur, f"missing from {side}")
            )
            continue
        verdict = timing_decision(baseline[name], current[name], tol)
        if not verdict.get("effect"):
            continue
        detail = (
            f"{verdict['decision']}: drift {verdict['effect']:+.1%} by "
            f"{verdict['method']} (n={verdict['baseline_n']}->"
            f"{verdict['current_n']})"
        )
        if verdict["method"] == "ratio-fallback" and tol is not None:
            detail += f", tolerance +{tol:.0%}"
        finding = Finding(
            "timing",
            name,
            verdict["baseline_median"],
            verdict["current_median"],
            detail,
        )
        if verdict["decision"] == "regressed":
            regressions.append(finding)
        else:
            report.infos.append(finding)


# ---------------------------------------------------------------------------
# RunReport adapter (obs check, obs diff)


def _histogram_fingerprint(payload: Dict[str, object]) -> Tuple:
    """The deterministic part of a serialized histogram."""
    return (
        tuple(payload.get("bucket_counts", ())),
        payload.get("count"),
        payload.get("total"),
        payload.get("min"),
        payload.get("max"),
    )


def _report_maps(
    report: RunReport,
) -> Tuple[Dict[str, Dict[str, object]], Dict[str, List[float]]]:
    """A report's exactly compared maps per kind, and its stage seconds."""
    metrics = report.metrics
    exact = {
        "counter": metrics.counters,
        "gauge": metrics.gauges,
        "histogram": {
            name: _histogram_fingerprint(hist.as_dict())
            for name, hist in metrics.histograms.items()
        },
    }
    seconds = {
        stage: [float(entry.get("seconds", 0.0))]
        for stage, entry in report.timings.items()
    }
    return exact, seconds


def _report_id(report: RunReport) -> str:
    stem = report.spec.stem if report.spec else "unkeyed"
    return f"{stem}@{report.git_sha or '?'}"


def compare_reports(
    baseline: RunReport,
    current: RunReport,
    timing_tol: Optional[float] = None,
) -> RegressionReport:
    """Compare a fresh RunReport against its baseline.

    Deterministic counters, gauges, and histograms
    (:func:`is_deterministic`) must match exactly; everything else lands
    in ``infos``. Stage seconds fail beyond ``timing_tol`` when set,
    else are reported as info. Reports for different specs are a
    finding of their own — the caller matched the wrong baseline — and
    a changed commit is info.
    """
    result = RegressionReport(
        subject=current.spec.stem if current.spec else "unkeyed",
        baseline_id=_report_id(baseline),
        current_id=_report_id(current),
    )
    if baseline.spec != current.spec:
        result.findings.append(
            Finding(
                "spec",
                "run_spec",
                str(baseline.spec),
                str(current.spec),
                "reports describe different workloads",
            )
        )
    compare_exact(
        "commit",
        {"git_sha": baseline.git_sha},
        {"git_sha": current.git_sha},
        (),
        result,
    )
    base_maps, base_seconds = _report_maps(baseline)
    cur_maps, cur_seconds = _report_maps(current)
    for kind in base_maps:
        names = set(base_maps[kind]) | set(cur_maps[kind])
        deterministic = {name for name in names if is_deterministic(name)}
        compare_exact(kind, base_maps[kind], cur_maps[kind], deterministic, result)
    compare_timings(
        base_seconds, cur_seconds, timing_tol, result, result.findings
    )
    return result
