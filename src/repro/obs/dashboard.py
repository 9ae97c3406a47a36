"""Static HTML dashboard of metric trends across the baseline store.

``python -m repro obs dashboard`` renders every archived workload's
deterministic counters and stage timings as inline-SVG sparklines over
baseline history — one self-contained HTML file, no JavaScript, no
external assets, viewable from ``file://`` and uploadable as a CI
artifact. The newest value is compared against the previous baseline so
drifting counters stand out before ``repro obs check`` ever fails.

When the newest baseline is a schema-v3 RunReport carrying serving
telemetry, each workload section also renders the *within-run* view:
per-window ``search.serve.*`` histogram p50/p99 sparklines (one point
per window) and the tail exemplars' span trees — the K slowest plus
all deadline-expired requests.

When a benchmark history store is supplied (``--history-dir``), a
**benchmark trajectory** page precedes the workload sections: one
sparkline per bench metric over the full recorded history, with
changepoints marked on the line and listed with the commit they landed
in — and, when the baseline store holds serving reports with per-stage
``search.serve.budget_seconds{stage=}`` histograms, a stage-level
attribution table so a search-bench slowdown names the guilty stage.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .baseline import BaselineStore
from .history import BenchHistory
from .regress import is_deterministic
from .report import RunReport

__all__ = ["render_dashboard", "write_dashboard", "DEFAULT_DASHBOARD_PATH"]

DEFAULT_DASHBOARD_PATH = Path("results") / "obs" / "dashboard.html"

_SPARK_W = 160
_SPARK_H = 28

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2em; color: #1a1a2e; background: #fafafc; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #d8d8e0; padding: 3px 10px;
         font-size: 0.85em; text-align: left; }
th { background: #eeeef4; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.up { color: #b3261e; } .down { color: #176b37; } .flat { color: #888; }
.meta { color: #666; font-size: 0.8em; }
svg { vertical-align: middle; }
""".strip()


def _sparkline(
    values: Sequence[float], marks: Optional[Sequence[int]] = None
) -> str:
    """Inline SVG polyline over a value history (last point dotted).

    ``marks`` are indices into ``values`` drawn as hollow changepoint
    circles, so the trajectory page shows *where* a metric shifted.
    """
    if len(values) < 2:
        return '<span class="flat">&mdash;</span>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    points = []
    for index, value in enumerate(values):
        x = 2 + index * (_SPARK_W - 4) / (len(values) - 1)
        y = _SPARK_H - 3 - (value - lo) / span * (_SPARK_H - 6)
        points.append(f"{x:.1f},{y:.1f}")
    last_x, last_y = points[-1].split(",")
    marked = []
    for index in marks or ():
        if 0 <= index < len(points):
            mark_x, mark_y = points[index].split(",")
            marked.append(
                f'<circle cx="{mark_x}" cy="{mark_y}" r="3.5" '
                'fill="none" stroke="#b3261e" stroke-width="1.5"/>'
            )
    return (
        f'<svg width="{_SPARK_W}" height="{_SPARK_H}" '
        f'viewBox="0 0 {_SPARK_W} {_SPARK_H}">'
        f'<polyline points="{" ".join(points)}" fill="none" '
        'stroke="#4a4a8a" stroke-width="1.5"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="2.5" fill="#b3261e"/>'
        f'{"".join(marked)}'
        "</svg>"
    )


def _delta_cell(previous: Optional[float], latest: float) -> str:
    if previous is None:
        return '<td class="num flat">new</td>'
    if previous == latest:
        return '<td class="num flat">=</td>'
    if previous == 0:
        return '<td class="num up">&#8734;</td>'
    drift = (latest - previous) / previous
    css = "up" if drift > 0 else "down"
    return f'<td class="num {css}">{drift:+.2%}</td>'


def _series_rows(
    series: Dict[str, List[Optional[float]]], caption: str
) -> List[str]:
    """One <table> of metric rows: name, sparkline, latest, delta."""
    if not series:
        return []
    rows = [
        "<table>",
        f"<tr><th>{html.escape(caption)}</th><th>trend</th>"
        "<th>latest</th><th>vs prev</th></tr>",
    ]
    for name in sorted(series):
        history = [v for v in series[name] if v is not None]
        if not history:
            continue
        latest = history[-1]
        previous = history[-2] if len(history) > 1 else None
        rows.append(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td>{_sparkline(history)}</td>"
            f'<td class="num">{latest:g}</td>'
            f"{_delta_cell(previous, latest)}</tr>"
        )
    rows.append("</table>")
    return rows


def _collect(
    reports: Sequence[RunReport],
) -> Tuple[Dict[str, List[Optional[float]]], Dict[str, List[Optional[float]]]]:
    """(deterministic counter series, stage-seconds series) per metric."""
    counters: Dict[str, List[Optional[float]]] = {}
    timings: Dict[str, List[Optional[float]]] = {}
    names = {
        name
        for report in reports
        for name in report.metrics.counters
        if is_deterministic(name)
    }
    stages = {stage for report in reports for stage in report.timings}
    for report in reports:
        report_counters = report.metrics.counters
        for name in names:
            counters.setdefault(name, []).append(report_counters.get(name))
        for stage in stages:
            entry = report.timings.get(stage)
            timings.setdefault(stage, []).append(
                None if entry is None else entry.get("seconds")
            )
    return counters, timings


def _window_quantile_series(
    windows: Sequence[dict],
) -> Dict[str, List[Optional[float]]]:
    """Per-window histogram quantiles keyed ``<metric> <field>``.

    One series point per window, so the sparkline is the quantile's
    trajectory *within* the newest run — the request-scoped view,
    versus the per-baseline trend of the other tables.
    """
    names = {
        name
        for window in windows
        for name in (window.get("histograms") or {})
    }
    series: Dict[str, List[Optional[float]]] = {}
    for name in sorted(names):
        for field in ("p50", "p99"):
            key = f"{name} {field}"
            for window in windows:
                entry = (window.get("histograms") or {}).get(name) or {}
                series.setdefault(key, []).append(entry.get(field))
    return series


def _serving_rows(report: RunReport) -> List[str]:
    """Windowed quantile sparklines + tail exemplars (newest report)."""
    from .tracing import render_tree

    parts: List[str] = []
    windows = list(getattr(report, "windows", []) or [])
    if windows:
        parts.append(
            f'<p class="meta">serving telemetry: {len(windows)} '
            "window(s) from the newest report; one point per window</p>"
        )
        parts.extend(
            _series_rows(
                _window_quantile_series(windows),
                "windowed quantile (seconds)",
            )
        )
    exemplars = list(getattr(report, "exemplars", []) or [])
    if exemplars:
        parts.append(
            f'<p class="meta">{len(exemplars)} tail exemplar(s): slowest '
            "requests first, then deadline-expired</p>"
        )
        for exemplar in exemplars:
            latency_ms = 1e3 * float(exemplar.get("latency_seconds", 0.0))
            header = (
                f"request {exemplar.get('request_id')} "
                f"[{html.escape(str(exemplar.get('status', '?')))}] "
                f"{latency_ms:.3f} ms"
            )
            tree = exemplar.get("tree")
            try:
                body = (
                    render_tree(tree) if tree else "(no span tree recorded)"
                )
            except (KeyError, TypeError, ValueError):
                # An exemplar from an older/foreign report whose tree
                # shape this build cannot walk — show the request line
                # anyway rather than losing the whole dashboard.
                body = "(unrenderable span tree)"
            parts.append(
                f"<pre>{html.escape(header)}\n{html.escape(body)}</pre>"
            )
    return parts


def _trajectory_rows(history: BenchHistory, max_points: int) -> List[str]:
    """The benchmark trajectory page: one sparkline per bench metric
    over the recorded history, changepoints circled on the line and
    listed with the commit they landed in."""
    from .analytics import detect_changepoints, metric_names, metric_series

    parts: List[str] = []
    for bench in history.benches():
        entries = history.read(bench)[-max_points:]
        if not entries:
            continue
        newest = entries[-1]
        parts.append(f"<h2>bench: {html.escape(bench)}</h2>")
        parts.append(
            f'<p class="meta">{len(entries)} recorded run(s) &middot; '
            f"newest commit {html.escape(newest.git_sha or '?')} "
            f"at {html.escape(newest.created_at or '?')}</p>"
        )
        rows = [
            "<table>",
            "<tr><th>metric</th><th>trend</th><th>latest</th>"
            "<th>vs prev</th><th>changepoints</th></tr>",
        ]
        for name in metric_names(entries):
            series = metric_series(entries, name)
            changepoints = detect_changepoints(series)
            # Compact out the Nones for drawing, remapping changepoint
            # indices onto the compacted line.
            compact: List[float] = []
            remap: Dict[int, int] = {}
            for index, value in enumerate(series):
                if value is None:
                    continue
                remap[index] = len(compact)
                compact.append(value)
            if not compact:
                continue
            marks = [remap[i] for i in changepoints if i in remap]
            latest = compact[-1]
            previous = compact[-2] if len(compact) > 1 else None
            if changepoints:
                shifts = ", ".join(
                    html.escape(
                        str(entries[i].git_sha or "?")[:12]
                    )
                    for i in changepoints
                )
                change_cell = f'<td class="up">{shifts}</td>'
            else:
                change_cell = '<td class="flat">&mdash;</td>'
            rows.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{_sparkline(compact, marks)}</td>"
                f'<td class="num">{latest:g}</td>'
                f"{_delta_cell(previous, latest)}"
                f"{change_cell}</tr>"
            )
        rows.append("</table>")
        parts.extend(rows)
    return parts


def _attribution_rows(store: BaselineStore) -> List[str]:
    """Stage-level slowdown attribution between the two newest serving
    baselines that carry ``search.serve.budget_seconds{stage=}``
    histograms — the table that turns "the search bench got slower"
    into "the execute stage got slower"."""
    from .analytics import attribute_stages, stage_budget_means

    serving: List[RunReport] = []
    for spec in store.specs().values():
        reports = []
        for path in store.history(spec)[-2:]:
            try:
                report = RunReport.load(path)
            except (OSError, ValueError):
                continue
            if stage_budget_means(report):
                reports.append(report)
        if len(reports) >= 2:
            serving = reports
            break
    if len(serving) < 2:
        return []
    rows = attribute_stages(serving[-2], serving[-1])
    if not rows:
        return []
    parts = [
        '<p class="meta">stage attribution: newest serving baseline vs '
        "its predecessor (mean seconds/request from "
        "search.serve.budget_seconds{stage=})</p>",
        "<table>",
        "<tr><th>stage</th><th>baseline</th><th>current</th>"
        "<th>delta</th><th>share</th></tr>",
    ]
    for row in rows:
        css = "up" if row["delta_seconds"] > 0 else "down"
        parts.append(
            f"<tr><td>{html.escape(str(row['stage']))}</td>"
            f'<td class="num">{row["baseline_mean_seconds"]:.6f}s</td>'
            f'<td class="num">{row["current_mean_seconds"]:.6f}s</td>'
            f'<td class="num {css}">{row["delta_seconds"]:+.6f}s</td>'
            f'<td class="num">{row["share_of_total_delta"]:+.0%}</td>'
            "</tr>"
        )
    parts.append("</table>")
    return parts


def render_dashboard(
    store: BaselineStore,
    max_points: int = 30,
    history: Optional[BenchHistory] = None,
) -> str:
    """The dashboard HTML for a baseline store (empty store included)."""
    parts = [
        "<!doctype html>",
        '<html><head><meta charset="utf-8">',
        "<title>repro obs dashboard</title>",
        f"<style>{_STYLE}</style></head><body>",
        "<h1>repro observability dashboard</h1>",
        f'<p class="meta">baseline store: {html.escape(str(store.root))}</p>',
    ]
    if history is not None:
        trajectory = _trajectory_rows(history, max_points)
        if trajectory:
            parts.append("<h1>benchmark trajectory</h1>")
            parts.append(
                f'<p class="meta">bench history: '
                f"{html.escape(str(history.root))}</p>"
            )
            parts.extend(trajectory)
            parts.extend(_attribution_rows(store))
        else:
            parts.append(
                f'<p class="meta">no bench history recorded under '
                f"{html.escape(str(history.root))}</p>"
            )
    specs = store.specs()
    if not specs:
        parts.append(
            "<p>No baselines archived yet. Create one with "
            "<code>python -m repro obs check REPORT --update</code>.</p>"
        )
    for key, spec in specs.items():
        paths = store.history(spec)[-max_points:]
        reports = []
        for path in paths:
            try:
                reports.append(RunReport.load(path))
            except (OSError, ValueError):  # unreadable baseline: skip
                continue
        parts.append(f"<h2>{html.escape(spec.stem)}</h2>")
        parts.append(
            f'<p class="meta">{len(reports)} baseline(s) &middot; '
            f"key {html.escape(key)}"
            + (
                f" &middot; newest commit "
                f"{html.escape(reports[-1].git_sha or '?')}"
                f" at {html.escape(reports[-1].created_at or '?')}"
                if reports
                else ""
            )
            + "</p>"
        )
        if not reports:
            continue
        counters, timings = _collect(reports)
        parts.extend(_series_rows(counters, "deterministic counter"))
        parts.extend(_series_rows(timings, "stage seconds"))
        parts.extend(_serving_rows(reports[-1]))
    parts.append("</body></html>")
    return "\n".join(parts)


def write_dashboard(
    store: BaselineStore,
    path: Union[str, Path, None] = None,
    max_points: int = 30,
    history: Optional[BenchHistory] = None,
) -> Path:
    """Render and write the dashboard; returns the written path."""
    path = Path(path) if path is not None else DEFAULT_DASHBOARD_PATH
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(
            render_dashboard(store, max_points=max_points, history=history)
        )
        handle.write("\n")
    return path
