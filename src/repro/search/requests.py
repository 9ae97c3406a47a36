"""Request admission for the serving pipeline.

The front door of the staged query path (ROADMAP item 1): callers
submit :class:`QueryRequest`\\ s into a bounded :class:`AdmissionQueue`;
the batch scheduler drains it. Admission control is where "heavy
traffic" becomes explicit — a full queue rejects instead of growing
without bound, and per-request deadlines let overload shed stale work
at dequeue time instead of scoring queries nobody is still waiting for.

Counters (``search.serve.admitted`` / ``rejected`` / ``expired``) and
the ``search.serve.queue_depth`` gauge flow through :mod:`repro.obs`
and are free when metrics are off. The clock is injectable so deadline
behaviour is testable without sleeping.

:attr:`AdmissionQueue.last_take_at` is the clock reading of the last
dequeue: the shared boundary where a traced pipeline ends each
request's ``admission`` span and starts the round's ``schedule`` span.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from ..graphs.graph import Graph
from ..obs import get_metrics
from .results import SearchResult

__all__ = ["QueryRequest", "QueryResponse", "AdmissionQueue"]


@dataclass(frozen=True)
class QueryRequest:
    """One admitted query: a graph to rank against the database.

    ``deadline`` is absolute on the admission queue's clock (``None``
    means the request never expires); ``submitted_at`` feeds the
    end-to-end latency histogram.
    """

    request_id: int
    graph: Graph
    top_k: int
    submitted_at: float
    deadline: Optional[float] = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


@dataclass(frozen=True)
class QueryResponse:
    """The pipeline's answer to one request.

    ``status`` is ``"ok"`` (ranked results attached) or ``"expired"``
    (the deadline passed before execution; ``results`` is empty).
    Results are a tuple — responses to duplicate requests share one
    frozen ranking, so they must be immutable.
    """

    request_id: int
    results: Tuple[SearchResult, ...] = field(default_factory=tuple)
    status: str = "ok"
    latency_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class AdmissionQueue:
    """Bounded FIFO of pending requests with deadline-aware dequeue.

    Parameters
    ----------
    max_depth:
        Admission bound. A submit against a full queue is rejected
        (returns ``None``) — backpressure, not buffering.
    clock:
        Monotonic-seconds callable; injectable for tests. Deadlines are
        absolute values of this clock.
    """

    def __init__(
        self,
        max_depth: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.clock = clock
        self._pending: Deque[QueryRequest] = deque()
        self._next_id = 0
        self.admitted = 0
        self.rejected = 0
        self.expired = 0
        #: Clock reading of the most recent ``take`` — the boundary
        #: where the admission stage ends and scheduling begins.
        self.last_take_at: Optional[float] = None

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def depth(self) -> int:
        return len(self._pending)

    def submit(
        self,
        graph: Graph,
        top_k: int = 5,
        timeout_seconds: Optional[float] = None,
    ) -> Optional[QueryRequest]:
        """Admit a query, or reject it when the queue is full.

        Returns the admitted :class:`QueryRequest` (its ``request_id``
        keys the eventual response) or ``None`` on rejection.
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        metrics = get_metrics()
        if len(self._pending) >= self.max_depth:
            self.rejected += 1
            if metrics is not None:
                metrics.inc("search.serve.rejected")
            return None
        now = self.clock()
        deadline = None if timeout_seconds is None else now + timeout_seconds
        request = QueryRequest(
            request_id=self._next_id,
            graph=graph,
            top_k=top_k,
            submitted_at=now,
            deadline=deadline,
        )
        self._next_id += 1
        self._pending.append(request)
        self.admitted += 1
        if metrics is not None:
            metrics.inc("search.serve.admitted")
            metrics.set_gauge("search.serve.queue_depth", len(self._pending))
        return request

    def take(
        self, max_items: Optional[int] = None
    ) -> Tuple[List[QueryRequest], List[QueryRequest]]:
        """Dequeue up to ``max_items`` requests in FIFO order.

        Returns ``(live, expired)``: requests whose deadline already
        passed are shed here — they count toward ``max_items`` (their
        queue slot was real) but skip scoring entirely.
        """
        now = self.clock()
        live: List[QueryRequest] = []
        dead: List[QueryRequest] = []
        budget = len(self._pending) if max_items is None else max_items
        while self._pending and budget > 0:
            request = self._pending.popleft()
            budget -= 1
            (dead if request.expired(now) else live).append(request)
        self.last_take_at = now
        metrics = get_metrics()
        if dead:
            self.expired += len(dead)
            if metrics is not None:
                metrics.inc("search.serve.expired", len(dead))
        if metrics is not None:
            metrics.set_gauge("search.serve.queue_depth", len(self._pending))
        return live, dead
