"""The one span recorder: run spans, request stage spans, and their views.

Every timed region in the repo is one *span record*, a Chrome
trace-event complete event (``"ph": "X"``)::

    {"name", "cat", "ph", "ts", "dur", "pid", "tid",
     "args"?, "parent"?, "request_ids"?}

``ts``/``dur`` are microseconds on ``time.perf_counter`` (or on the
clock whose readings a caller passed to :meth:`Tracer.record`);
``parent`` names the enclosing span; ``request_ids`` lists the
serving requests the span belongs to. A span is recorded once however
many requests share it: the serving pipeline records ``schedule`` once
per round and ``retrieve`` / ``pending`` / ``execute`` /
``execute.shard`` / ``rank`` once per batch (or per query group), and
only ``admission`` and ``respond`` once per request. Everything else is
a view over that one list:

- :meth:`Tracer.chrome_trace` / :meth:`Tracer.write` — Chrome
  trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``;
- :meth:`Tracer.budgets` / :meth:`Tracer.tree` — one request's
  top-level stage seconds and nested span tree. The pipeline's stage
  spans share their boundary clock readings, so a request's budgets sum
  to its measured latency (the ``search.serve.budget_seconds{stage=…}``
  histograms come from here);
- :meth:`Tracer.timings` — ``{stage: {"seconds", "calls"}}`` for a
  RunReport.

The tracer is bounded: past ``max_spans`` the oldest span is evicted
and counted (``dropped_spans``, and ``obs.context.dropped_spans`` on the
active metrics registry), so a too-small bound is visible, never
silent.

Tracing is off by default and free when off: the module-level
:func:`span` helper returns a shared stateless no-op context manager
when no tracer is active, and the pipeline records nothing without a
tracer. Worker processes record into a private tracer and ship its
:attr:`Tracer.events` in their telemetry payload; the parent folds them
in with :meth:`Tracer.add_events`. Events keep the worker's ``pid``, so
Perfetto draws one track per process, and their timestamps line up
because every process reads the same monotonic clock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from .metrics import get_metrics

__all__ = [
    "Tracer",
    "DEFAULT_MAX_SPANS",
    "get_tracer",
    "set_tracer",
    "tracing_enabled",
    "span",
    "render_tree",
]

#: Spans a tracer keeps before evicting the oldest.
DEFAULT_MAX_SPANS = 1 << 16


class _NullSpan:
    """Reusable no-op context manager (stateless, hence shareable)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records itself on the tracer on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_start", "_parent")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = 0.0
        self._parent: Optional[str] = None

    def __enter__(self) -> "_Span":
        stack = self._tracer._open
        self._parent = stack[-1] if stack else None
        stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._open.pop()
        tracer._record(self._name, self._start, end, self._parent, (), self._args)
        return False


def _json_safe(value: object) -> object:
    """Span args must survive json.dump; stringify anything exotic."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _Request:
    """The spans (shared records) and annotations of one request."""

    __slots__ = ("spans", "annotations")

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.annotations: Dict[str, str] = {}


class Tracer:
    """Bounded store of span records, with the views built on them.

    :meth:`span` blocks are timed on ``time.perf_counter``; callers
    that read their own stage boundaries (the serving pipeline) pass
    them to :meth:`record` instead, so adjacent stages share one
    reading.

    Parameters
    ----------
    max_spans:
        Spans kept before the oldest is evicted and counted.
    """

    __slots__ = (
        "max_spans",
        "pid",
        "dropped_spans",
        "_spans",
        "_requests",
        "_open",
    )

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self.pid = os.getpid()
        self.dropped_spans = 0
        self._spans: Deque[Dict[str, object]] = deque()
        self._requests: Dict[int, _Request] = {}
        self._open: List[str] = []

    # -- recording -------------------------------------------------------
    def span(self, name: str, **args: object) -> _Span:
        """A context manager timing its block."""
        return _Span(self, name, args)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        request_ids: Sequence[int] = (),
        **attrs: object,
    ) -> Dict[str, object]:
        """Record a span whose boundaries the caller already read."""
        return self._record(name, start, end, parent, request_ids, attrs)

    def _record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[str],
        request_ids: Sequence[int],
        attrs: Dict[str, object],
    ) -> Dict[str, object]:
        event: Dict[str, object] = {
            "name": name,
            "cat": "repro",
            "ph": "X",
            "ts": start * 1e6,
            "dur": max(0.0, end - start) * 1e6,
            "pid": self.pid,
            "tid": threading.get_ident() & 0xFFFFFFFF,
        }
        if attrs:
            event["args"] = {
                key: _json_safe(value) for key, value in attrs.items()
            }
        if parent is not None:
            event["parent"] = parent
        if request_ids:
            event["request_ids"] = tuple(int(rid) for rid in request_ids)
        self._append(event)
        return event

    def add_events(self, events: Iterable[Dict[str, object]]) -> None:
        """Fold in span records from another tracer (a worker process)."""
        for event in events:
            self._append(event)

    def annotate(self, request_ids: Iterable[int], **attrs: object) -> None:
        """Attach request-level attributes (batch id, group size, …)."""
        values = {str(key): str(value) for key, value in attrs.items()}
        for request_id in request_ids:
            self._request(int(request_id)).annotations.update(values)

    def _request(self, request_id: int) -> _Request:
        entry = self._requests.get(request_id)
        if entry is None:
            entry = self._requests[request_id] = _Request()
        return entry

    def _append(self, event: Dict[str, object]) -> None:
        self._spans.append(event)
        for request_id in event.get("request_ids", ()):
            self._request(request_id).spans.append(event)
        if len(self._spans) > self.max_spans:
            self._evict()

    def _evict(self) -> None:
        oldest = self._spans.popleft()
        self.dropped_spans += 1
        # Spans are indexed in record order, so the evicted span heads
        # each of its requests' lists.
        for request_id in oldest.get("request_ids", ()):
            entry = self._requests.get(request_id)
            if entry is None:
                continue
            del entry.spans[0]
            if not entry.spans:
                del self._requests[request_id]
        metrics = get_metrics()
        if metrics is not None:
            metrics.inc("obs.context.dropped_spans")

    # -- views -----------------------------------------------------------
    @property
    def events(self) -> List[Dict[str, object]]:
        """Every kept span record, in record order."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def request_ids(self) -> List[int]:
        """Requests with at least one kept span, oldest first."""
        return list(self._requests)

    def spans_for(self, request_id: int) -> List[Dict[str, object]]:
        entry = self._requests.get(int(request_id))
        return list(entry.spans) if entry is not None else []

    def annotations_for(self, request_id: int) -> Dict[str, str]:
        entry = self._requests.get(int(request_id))
        return dict(entry.annotations) if entry is not None else {}

    def budgets(self, request_id: int) -> Dict[str, float]:
        """Seconds per top-level stage of one request.

        The pipeline's stage spans are contiguous on its clock, so the
        values sum to the request's measured latency.
        """
        budgets: Dict[str, float] = {}
        for event in self.spans_for(request_id):
            if "parent" not in event:
                name = event["name"]
                budgets[name] = budgets.get(name, 0.0) + event["dur"] / 1e6
        return budgets

    def tree(self, request_id: int) -> Optional[Dict[str, object]]:
        """One request's span tree as a plain nested dict (JSON-safe).

        Top-level spans, ordered by start time, carry the spans whose
        ``parent`` names their stage as children; a child whose parent
        is missing stays at the top and is counted in ``orphan_spans``.
        Returns ``None`` for unknown requests.
        """
        entry = self._requests.get(int(request_id))
        if entry is None:
            return None
        nodes = [_node(event) for event in entry.spans if "parent" not in event]
        nodes.sort(key=lambda node: node["start"])
        by_stage: Dict[str, Dict[str, object]] = {}
        for node in nodes:
            by_stage.setdefault(node["stage"], node)
        orphans = 0
        for event in entry.spans:
            if "parent" not in event:
                continue
            parent = by_stage.get(event["parent"])
            if parent is None:
                orphans += 1
                nodes.append(_node(event))
            else:
                parent["children"].append(_node(event))
        tree: Dict[str, object] = {
            "request_id": int(request_id),
            "annotations": dict(entry.annotations),
            "spans": nodes,
        }
        if orphans:
            tree["orphan_spans"] = orphans
        return tree

    def timings(
        self, root: str, stages: Iterable[str] = ()
    ) -> Dict[str, Dict[str, float]]:
        """``{name: {"seconds", "calls"}}`` of a run's stage spans.

        Counts the top-level ``root`` spans and the ``stages`` opened
        directly inside them — not same-named spans deeper down.
        """
        stages = frozenset(stages)
        timings: Dict[str, Dict[str, float]] = {}
        for event in self._spans:
            name, parent = event["name"], event.get("parent")
            if (name == root and parent is None) or (
                name in stages and parent == root
            ):
                entry = timings.setdefault(name, {"seconds": 0.0, "calls": 0})
                entry["seconds"] += event["dur"] / 1e6
                entry["calls"] += 1
        return {name: timings[name] for name in sorted(timings)}

    def chrome_trace(self) -> Dict[str, object]:
        """The Perfetto-loadable JSON object for this trace."""
        return {
            "traceEvents": sorted(self._spans, key=lambda e: e["ts"]),
            "displayTimeUnit": "ms",
        }

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(events={len(self._spans)})"


def _node(event: Dict[str, object]) -> Dict[str, object]:
    """A span record as a :meth:`Tracer.tree` node."""
    return {
        "stage": event["name"],
        "start": event["ts"] / 1e6,
        "duration_seconds": event["dur"] / 1e6,
        "attrs": {
            key: str(value) for key, value in event.get("args", {}).items()
        },
        "children": [],
    }


def render_tree(tree: Dict[str, object]) -> str:
    """Readable indented rendering of a :meth:`Tracer.tree`."""
    lines = [f"request {tree['request_id']}"]
    annotations = tree.get("annotations") or {}
    if annotations:
        inner = " ".join(
            f"{key}={annotations[key]}" for key in sorted(annotations)
        )
        lines.append(f"  [{inner}]")

    def walk(node: Dict[str, object], depth: int) -> None:
        attrs = node.get("attrs") or {}
        suffix = (
            " {" + ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs)) + "}"
            if attrs
            else ""
        )
        lines.append(
            "  " * depth
            + f"- {node['stage']}: "
            + f"{1e3 * float(node['duration_seconds']):.3f} ms"
            + suffix
        )
        for child in node.get("children", []):
            walk(child, depth + 1)

    for node in tree.get("spans", []):
        walk(node, 1)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Active tracer, mirroring the metrics registry's on/off pattern.

_ACTIVE: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or None when tracing is disabled."""
    return _ACTIVE


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def tracing_enabled(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate a tracer for the duration of the block (nesting-safe)."""
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


def span(name: str, **args: object):
    """A span on the active tracer, or a shared no-op when tracing is off.

    Usage::

        with span("simulate", platform="CEGMA"):
            ...
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **args)
