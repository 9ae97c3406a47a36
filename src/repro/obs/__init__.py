"""Observability: metrics registry, span tracing, RunReport artifacts.

The counted quantities behind CEGMA's claims — duplicate-node skip
rates (Fig. 18), DRAM accesses (Fig. 17), window revisits minimized by
AOE — are emitted as structured telemetry while the simulator, the EMF,
and the CGC scheduler run, instead of existing only inside the figure
scripts.

Three cooperating pieces:

- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and histograms; free when disabled, mergeable across worker
  processes.
- :mod:`repro.obs.tracing` — hierarchical :func:`span` tracing exported
  as Chrome trace-event JSON (loadable in Perfetto).
- :mod:`repro.obs.report` — the schema-versioned :class:`RunReport`
  artifact combining metrics, spans, and
  :class:`~repro.perf.timing.StageTimer` data under ``results/obs/``.

On top of those, the **consumption layer** closes the loop — a report
is only useful if something notices when it changes:

- :mod:`repro.obs.baseline` — archives known-good RunReports under
  ``results/obs/baselines/`` keyed by RunSpec, with retention.
- :mod:`repro.obs.regress` — the one comparison core: an exact-compare
  loop (deterministic names must match, the rest is info), one timing
  verdict (median ± k·MAD intervals with enough samples, else a ratio
  band at the caller's tolerance) and one :class:`RegressionReport`
  (exit 0 clean / 1 finding / 2 warning or no baseline). Three thin
  adapters feed it: :func:`compare_reports` for ``repro obs check``
  and ``repro obs diff`` (RunReports), and
  :func:`~repro.obs.analytics.compare_entry` for ``repro obs bench
  compare`` (bench-history entries).
- :mod:`repro.obs.provenance` — stamps every written artifact with
  RunSpec + git SHA + timestamp + metrics digest
  (``repro obs provenance FILE`` inspects it).
- :mod:`repro.obs.profiling` — cProfile harness stages into collapsed
  stacks for speedscope/flamegraph tools.
- :mod:`repro.obs.dashboard` — a zero-dependency static HTML view of
  metric trends across the baseline store (and, when history is
  present, the benchmark trajectory with changepoints marked).
- :mod:`repro.obs.history` — the append-only benchmark history store
  under ``results/obs/bench_history/``: every ``repro bench`` run is
  one schema-versioned JSONL entry, idempotently keyed by content
  digest.
- :mod:`repro.obs.analytics` — analytics over that history: the
  bench-entry adapter of the comparison core, changepoint-annotated
  trends, and per-stage slowdown attribution against serving budget
  histograms.

The **request-scoped layer** serves the long-lived serving pipeline,
where run-scoped aggregates are blind:

- :mod:`repro.obs.context` — :class:`RequestContext` carried through
  every pipeline stage (and across the shm worker boundary) plus the
  :class:`RequestTracker` of per-request stage spans, whose summed
  top-level budgets equal the measured request latency.
- :mod:`repro.obs.timeseries` — :class:`TimeseriesRecorder` windowed
  snapshots: counter rates and per-window histogram p50/p99.
- :mod:`repro.obs.exemplars` — :class:`ExemplarBuffer` retaining the
  span trees of the K slowest and all deadline-expired requests.
- :mod:`repro.obs.export` — Prometheus-style text exposition and the
  ``repro obs tail`` window renderer.

Plus :func:`configure_logging` for the ``repro.*`` stdlib-logging
hierarchy used by the library in place of ``print``.
"""

from .analytics import (
    attribute_stages,
    compare_entry,
    compare_history,
    detect_changepoints,
    render_attribution,
    render_markdown_table,
    render_trend,
    stage_budget_means,
    trend_report,
)
from .baseline import BaselineStore, spec_key
from .context import RequestContext, RequestTracker, StageSpan, render_tree
from .dashboard import render_dashboard, write_dashboard
from .exemplars import Exemplar, ExemplarBuffer
from .export import (
    read_windows,
    render_exposition,
    render_window,
    split_metric_key,
    write_exposition,
)
from .history import (
    DEFAULT_HISTORY_DIR,
    HISTORY_SCHEMA_VERSION,
    BenchHistory,
    HistoryEntry,
    config_digest,
)
from .logging import configure_logging
from .metrics import (
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_metrics,
    metrics_enabled,
    set_metrics,
)
from .profiling import collapsed_stacks, profiled, write_collapsed
from .provenance import (
    current_git_sha,
    make_stamp,
    metrics_digest,
    now_iso,
    read_stamp,
    stamp_payload,
    validate_stamp,
)
from .regress import (
    DETERMINISTIC_PREFIXES,
    SERVING_DETERMINISTIC_PREFIXES,
    Finding,
    RegressionReport,
    compare_reports,
    timing_decision,
)
from .report import (
    RUN_REPORT_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    RunReport,
    default_report_path,
    validate_report,
)
from .timeseries import TimeseriesRecorder, Window, delta_quantile
from .tracing import Tracer, get_tracer, set_tracer, span, tracing_enabled

__all__ = [
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "get_metrics",
    "metrics_enabled",
    "set_metrics",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span",
    "tracing_enabled",
    "RunReport",
    "RUN_REPORT_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "default_report_path",
    "validate_report",
    "configure_logging",
    "BaselineStore",
    "spec_key",
    "DETERMINISTIC_PREFIXES",
    "RegressionReport",
    "Finding",
    "timing_decision",
    "compare_reports",
    "current_git_sha",
    "now_iso",
    "metrics_digest",
    "make_stamp",
    "stamp_payload",
    "read_stamp",
    "validate_stamp",
    "profiled",
    "collapsed_stacks",
    "write_collapsed",
    "render_dashboard",
    "write_dashboard",
    "RequestContext",
    "RequestTracker",
    "StageSpan",
    "render_tree",
    "TimeseriesRecorder",
    "Window",
    "delta_quantile",
    "Exemplar",
    "ExemplarBuffer",
    "SERVING_DETERMINISTIC_PREFIXES",
    "render_exposition",
    "write_exposition",
    "render_window",
    "read_windows",
    "split_metric_key",
    "BenchHistory",
    "HistoryEntry",
    "config_digest",
    "DEFAULT_HISTORY_DIR",
    "HISTORY_SCHEMA_VERSION",
    "compare_entry",
    "compare_history",
    "detect_changepoints",
    "trend_report",
    "render_trend",
    "render_markdown_table",
    "stage_budget_means",
    "attribute_stages",
    "render_attribution",
]
