"""In-memory span recording for the benchmark's traced runs.

The benchmark times layers from outside the program: :class:`Tracer`
swaps a public method of a live object (the pipeline's queue, scheduler,
retriever and executor, the index, the platform registry) for a wrapper
that records one span per call. Spans carry a name, start, end, the
enclosing span as parent, and caller-supplied attributes such as request
ids. They stay in memory until :meth:`Tracer.write`.

Nothing here is installed on objects that cross the worker boundary
(the model is pickled into worker tasks), and :meth:`Tracer.restore`
puts every original method back.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer"]


class Tracer:
    """Records nested spans around wrapped method calls."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: Layer names whose method was missing, reported as absent.
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        """Record one span; the yielded dict takes extra attributes."""
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": dict(attrs),
        }
        self.spans.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        obj: object,
        method: str,
        name: str,
        before: Optional[Callable[..., Dict[str, object]]] = None,
        after: Optional[Callable[..., Dict[str, object]]] = None,
    ) -> bool:
        """Replace ``obj.method`` with a span-recording wrapper.

        ``before(*args, **kwargs)`` and ``after(result, *args,
        **kwargs)`` return attributes for the span. A missing method
        marks ``name`` absent and returns False instead of raising.
        """
        original = getattr(obj, method, None) if obj is not None else None
        if not callable(original):
            if name not in self.absent:
                self.absent.append(name)
            return False

        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before is not None else {}
            with self.span(name, **attrs) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    record.update(after(result, *args, **kwargs))
            return result

        had_own = method in getattr(obj, "__dict__", {})
        setattr(obj, method, wrapper)
        self._installed.append((obj, method, original, had_own))
        return True

    def restore(self) -> None:
        """Put back every wrapped method, newest first."""
        while self._installed:
            obj, method, original, had_own = self._installed.pop()
            if had_own:
                setattr(obj, method, original)
            else:
                delattr(obj, method)

    # -- reading -------------------------------------------------------
    def named(self, name: str) -> List[dict]:
        return [record for record in self.spans if record["name"] == name]

    def self_seconds(self) -> Dict[int, float]:
        """Each span's duration minus the time its children cover.

        Spans are recorded from one thread, so children nest inside
        their parent's interval and never overlap each other.
        """
        own = {
            record["id"]: record["end"] - record["start"]
            for record in self.spans
        }
        for record in self.spans:
            parent = record["parent"]
            if parent is not None:
                own[parent] -= record["end"] - record["start"]
        return own

    def busy_seconds(self, name: str) -> float:
        """Total self time of every span called ``name``."""
        own = self.self_seconds()
        return sum(own[record["id"]] for record in self.named(name))

    def write(self, path) -> None:
        """Write the spans as JSON lines, with self time added."""
        own = self.self_seconds()
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                line = dict(record, self=own[record["id"]])
                handle.write(json.dumps(line, default=str) + "\n")
