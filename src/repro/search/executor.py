"""Sharded batch execution against the graph database.

Bottom stage of the serving pipeline: a :class:`ShardedExecutor` scores
each query batch against the database split into contiguous shards,
ranks every shard's scores locally, and k-way merges the per-shard
top-k lists into the global ranking. Because ranking and merging both
honour the :class:`~repro.search.results.SearchResult` total order,
the merged result is bit-identical to one flat sort over the whole
database — the property the ``search.serve_vs_direct`` check gates.

Two executions of the same plan:

- **Serial** (the guaranteed path): the parent scores every query
  in-process. Before scoring, byte-identical database candidates are
  collapsed via :func:`~repro.search.storage.graph_signature` — one
  forward pass per *unique* candidate, score broadcast to duplicates
  (the EMF dedup-and-broadcast move at database granularity; exact by
  construction, so rankings cannot change).
- **Sharded workers** (multi-core hosts): shards fan across the
  ``perf.parallel`` process pool. The database travels once as an
  uncompressed ``.npz`` image in a shared-memory segment; each worker
  attaches, rebuilds only its shard, dedups within it, and returns raw
  score vectors for the parent to rank and merge. Any pool or
  shared-memory failure falls back to the serial path transparently
  (same ``_map_tasks`` contract as the simulation harness).

Request-scoped telemetry crosses the worker boundary explicitly: each
task tuple carries the batch queries' :class:`~repro.obs.context.
RequestContext` wire forms, workers record per-query ``execute.shard``
spans (and a ``search.serve.shard_seconds`` latency histogram) into a
private tracker, and the span payloads ship back with the worker's
metrics snapshot for the parent to ingest under its ``execute`` stage
span at join. A context that fails to deserialize is counted as
``obs.context.worker_failures`` — never silently dropped.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.pairs import GraphPair
from ..models.base import GMNModel
from ..models.training import LogisticHead
from ..obs import LATENCY_BUCKETS, get_metrics, metrics_enabled, span
from ..obs.context import RequestContext, RequestTracker
from ..perf.parallel import (
    _map_tasks,
    _merge_worker_telemetry,
    _telemetry_payload,
    available_workers,
)
from . import results as results_mod
from .results import SearchResult
from .scheduler import QueryBatch
from .storage import graph_signature, graphs_from_buffer, graphs_to_npz_bytes

__all__ = ["shard_bounds", "ShardedExecutor"]

logger = logging.getLogger("repro.search.executor")


def shard_bounds(database_size: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``[start, stop)`` slices of the database.

    Never returns more shards than entries; an empty database yields no
    shards. Together the slices cover every index exactly once — the
    invariant that makes the shard merge equal to a flat sort.
    """
    if database_size <= 0:
        return []
    num_shards = max(1, min(num_shards, database_size))
    stride = -(-database_size // num_shards)
    return [
        (start, min(start + stride, database_size))
        for start in range(0, database_size, stride)
    ]


def _dedup_scores(
    score_fn: Callable[[Graph], float],
    graphs: Sequence[Graph],
    signatures: Sequence[bytes],
) -> Tuple[np.ndarray, int]:
    """Score candidates, computing each unique signature once.

    Returns the dense score vector and the number of forward passes
    saved (duplicates broadcast from their representative).
    """
    representatives: Dict[bytes, int] = {}
    scores = np.empty(len(graphs), dtype=np.float64)
    for position, signature in enumerate(signatures):
        representative = representatives.setdefault(signature, position)
        if representative == position:
            scores[position] = score_fn(graphs[position])
        else:
            scores[position] = scores[representative]
    return scores, len(graphs) - len(representatives)


def _score_shard_queries(
    model: GMNModel,
    scorer: Optional[LogisticHead],
    shard: Sequence[Graph],
    signatures: Sequence[bytes],
    queries: Sequence[Graph],
    contexts: Optional[Sequence[Optional[dict]]],
    shard_label: str,
    tracker: Optional[RequestTracker],
) -> List[np.ndarray]:
    """Score every query against one shard, recording telemetry.

    Shared by the worker body and the serial path so both emit the same
    ``execute.shard`` spans and ``search.serve.shard_seconds``
    observations. ``contexts`` holds one
    :class:`~repro.obs.context.RequestContext` wire dict (or ``None``)
    per query; a malformed one counts as
    ``obs.context.worker_failures`` instead of crashing the shard.
    """
    registry = get_metrics()
    vectors: List[np.ndarray] = []
    for position, query in enumerate(queries):
        started = time.monotonic()
        scores, saved = _dedup_scores(
            lambda candidate: _pair_score(model, scorer, candidate, query),
            shard,
            signatures,
        )
        elapsed = time.monotonic() - started
        if registry is not None:
            if saved:
                registry.inc("search.serve.candidate_dedup_hits", saved)
            registry.observe(
                "search.serve.shard_seconds",
                elapsed,
                bounds=LATENCY_BUCKETS,
            )
        if tracker is not None and contexts is not None:
            payload = contexts[position]
            if payload is not None:
                try:
                    context = RequestContext.from_wire(payload)
                except (KeyError, TypeError, ValueError):
                    if registry is not None:
                        registry.inc("obs.context.worker_failures")
                else:
                    tracker.record(
                        context.request_id,
                        "execute.shard",
                        start=started,
                        duration_seconds=elapsed,
                        parent="execute",
                        shard=shard_label,
                    )
        vectors.append(scores)
    return vectors


def _shard_task(task):
    """Worker body: score every batch query against one database shard.

    Attaches the parent's shared-memory database image, rebuilds only
    ``[start, stop)``, and returns raw per-query score vectors — the
    parent owns ranking and merging so the tie-break contract lives in
    one process. When the task carries request contexts, per-query
    ``execute.shard`` spans ride back in the telemetry payload.
    """
    (
        shm_name,
        size,
        start,
        stop,
        ids,
        model,
        scorer,
        queries,
        contexts,
        collect,
    ) = task
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    view = None
    try:
        view = shm.buf[:size]
        if ids is None:
            shard = graphs_from_buffer(view, start, stop)
            shard_label = f"{start}:{stop}"
        else:
            # Candidate-retrieval shard: ``[start, stop)`` slices the
            # batch's candidate id array, not the database itself.
            shard = graphs_from_buffer(view, indices=ids)
            shard_label = f"sel{start}:{stop}"
        signatures = [graph_signature(graph) for graph in shard]
        if not collect:
            return (
                start,
                _score_shard_queries(
                    model, scorer, shard, signatures, queries,
                    None, shard_label, None,
                ),
                None,
            )
        tracker = RequestTracker() if contexts is not None else None
        with metrics_enabled() as registry:
            vectors = _score_shard_queries(
                model, scorer, shard, signatures, queries,
                contexts, shard_label, tracker,
            )
        return start, vectors, _telemetry_payload(registry, tracker)
    finally:
        view = None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views still referenced
            pass  # process exit unmaps; the parent unlinks


def _pair_score(
    model: GMNModel,
    scorer: Optional[LogisticHead],
    candidate: Graph,
    query: Graph,
) -> float:
    """Exact per-pair score — identical to the flat path's scoring."""
    trace = model.forward_pair(GraphPair(candidate, query))
    if scorer is not None and trace.head_features is not None:
        return float(scorer.predict_proba(trace.head_features[None, :])[0])
    return trace.score


class ShardedExecutor:
    """Execute query batches against a (possibly growing) database.

    Holds a live reference to the index's graph list; signatures and
    the shared-memory image are cached and extended/invalidated as the
    database grows.

    Parameters
    ----------
    num_shards:
        Shard count per query; defaults to the worker count (at least
        one shard per worker keeps the pool busy).
    workers:
        Process-pool width; clamped to the host's cores. ``1`` forces
        the serial path.
    tracker:
        Optional :class:`~repro.obs.context.RequestTracker`; when set,
        the executor records ``pending``/``execute``/``rank`` stage
        spans per request (contiguous on ``clock``) and joins worker
        shard spans back to each request's tree.
    clock:
        The pipeline's monotonic clock — stage boundaries must be read
        off the same clock the admission queue uses for budgets to sum
        to the measured latency.
    """

    def __init__(
        self,
        model: GMNModel,
        graphs: List[Graph],
        scorer: Optional[LogisticHead] = None,
        num_shards: Optional[int] = None,
        workers: Optional[int] = None,
        tracker: Optional[RequestTracker] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.model = model
        self.scorer = scorer
        self._graphs = graphs
        self.num_shards = num_shards
        self.workers = workers
        self.tracker = tracker
        self.clock = clock
        self._signatures: List[bytes] = []
        self._image: Optional[Tuple[int, bytes]] = None
        #: Clock reading when the last batch finished ranking — where
        #: the pipeline's ``respond`` stage span begins.
        self.last_batch_end: Optional[float] = None

    # -- cached database views -----------------------------------------
    def signatures(self) -> List[bytes]:
        """Byte signatures of every database graph (extended lazily)."""
        for graph in self._graphs[len(self._signatures) :]:
            self._signatures.append(graph_signature(graph))
        del self._signatures[len(self._graphs) :]
        return self._signatures

    def _database_image(self) -> bytes:
        """The database as npz bytes, rebuilt when the size changes."""
        size = len(self._graphs)
        if self._image is None or self._image[0] != size:
            self._image = (size, graphs_to_npz_bytes(self._graphs))
        return self._image[1]

    # -- execution ------------------------------------------------------
    def run_batch(
        self,
        batch: QueryBatch,
        pending_since: Optional[float] = None,
        candidates: Optional[np.ndarray] = None,
    ) -> List[Tuple[SearchResult, ...]]:
        """Score one batch; returns rankings aligned with its groups.

        ``pending_since`` is the clock reading where scheduling ended —
        the start of this batch's ``pending`` stage (time spent waiting
        for earlier batches in the round). Stage spans recorded here
        share boundary timestamps, so per-request budgets stay exact.

        ``candidates`` restricts scoring to the given database indices
        (sorted unique, from a
        :class:`~repro.search.sketch.CandidateRetriever`); results rank
        only those candidates, under the same total order and shard
        plan the full database would use. ``None`` scores everything —
        the flat-retrieval path, byte-identical to before candidates
        existed.
        """
        database_size = len(self._graphs)
        if database_size == 0:
            return [tuple() for _ in batch.groups]
        selection = None
        if candidates is not None:
            selection = np.unique(np.asarray(candidates, dtype=np.int64))
            if selection.size and (
                selection[0] < 0 or selection[-1] >= database_size
            ):
                raise IndexError(
                    "candidate ids out of range for database of size "
                    f"{database_size}"
                )
            if selection.size == 0:
                return [tuple() for _ in batch.groups]
        work_size = database_size if selection is None else len(selection)
        workers = available_workers(self.workers)
        bounds = shard_bounds(
            work_size,
            workers if self.num_shards is None else self.num_shards,
        )
        queries = [group.graph for group in batch.groups]
        contexts = (
            [group.primary.context for group in batch.groups]
            if self.tracker is not None
            else None
        )
        tracker = self.tracker
        members = [
            request for group in batch.groups for request in group.requests
        ]
        if tracker is not None:
            execute_start = self.clock()
            if pending_since is not None:
                for request in members:
                    tracker.record(
                        request.request_id,
                        "pending",
                        start=pending_since,
                        duration_seconds=execute_start - pending_since,
                        batch=batch.batch_id,
                    )
        with span(
            "serve.execute",
            batch=batch.batch_id,
            queries=len(queries),
            shards=len(bounds),
        ):
            vectors = None
            if workers > 1 and len(bounds) > 1:
                vectors = self._run_sharded(
                    queries, contexts, bounds, workers, selection
                )
            if vectors is None:
                vectors = self._run_serial(queries, contexts, bounds, selection)
        if tracker is not None:
            rank_start = self.clock()
            for request in members:
                tracker.record(
                    request.request_id,
                    "execute",
                    start=execute_start,
                    duration_seconds=rank_start - execute_start,
                    batch=batch.batch_id,
                    shards=len(bounds),
                )
        with span("serve.rank", batch=batch.batch_id):
            rankings = [
                self._rank(vectors[position], bounds, group.top_k, selection)
                for position, group in enumerate(batch.groups)
            ]
        if tracker is not None:
            rank_end = self.clock()
            for request in members:
                tracker.record(
                    request.request_id,
                    "rank",
                    start=rank_start,
                    duration_seconds=rank_end - rank_start,
                    batch=batch.batch_id,
                )
            # Dedup followers share the primary's execution, so they
            # share its per-shard detail spans too.
            for group in batch.groups:
                if len(group) > 1:
                    tracker.replicate(
                        group.primary.request_id,
                        [r.request_id for r in group.requests[1:]],
                    )
            self.last_batch_end = rank_end
        return rankings

    def _rank(
        self,
        shard_scores: List[np.ndarray],
        bounds: List[Tuple[int, int]],
        top_k: int,
        selection: Optional[np.ndarray] = None,
    ) -> Tuple[SearchResult, ...]:
        """Rank each shard locally, then k-way merge to the global top-k.

        With a candidate ``selection``, results carry the *database*
        index of each scored candidate, so the total order (descending
        score, ties ascending database index) is the flat path's order
        restricted to the candidate set.
        """
        partials = [
            results_mod.rank_scores(
                scores,
                top_k,
                indices=(
                    np.arange(start, stop)
                    if selection is None
                    else selection[start:stop]
                ),
            )
            for scores, (start, stop) in zip(shard_scores, bounds)
        ]
        return tuple(results_mod.merge_topk(partials, top_k))

    def _run_serial(
        self,
        queries: Sequence[Graph],
        contexts: Optional[List[Optional[RequestContext]]],
        bounds: List[Tuple[int, int]],
        selection: Optional[np.ndarray] = None,
    ) -> List[List[np.ndarray]]:
        """Score in-process with database-wide candidate dedup."""
        wire_contexts = (
            [
                None if context is None else context.to_wire()
                for context in contexts
            ]
            if contexts is not None
            else None
        )
        if selection is None:
            graphs: Sequence[Graph] = self._graphs
            signatures: Sequence[bytes] = self.signatures()
            label = f"0:{len(self._graphs)}"
        else:
            all_signatures = self.signatures()
            graphs = [self._graphs[i] for i in selection]
            signatures = [all_signatures[i] for i in selection]
            label = f"sel0:{len(graphs)}"
        vectors = _score_shard_queries(
            self.model,
            self.scorer,
            graphs,
            signatures,
            queries,
            wire_contexts,
            label,
            self.tracker,
        )
        return [
            [scores[start:stop] for start, stop in bounds]
            for scores in vectors
        ]

    def _run_sharded(
        self,
        queries: Sequence[Graph],
        contexts: Optional[List[Optional[RequestContext]]],
        bounds: List[Tuple[int, int]],
        workers: int,
        selection: Optional[np.ndarray] = None,
    ) -> Optional[List[List[np.ndarray]]]:
        """Fan shards across the process pool via shared memory.

        Returns None when the segment cannot be created so the caller
        falls back to the serial path.
        """
        try:
            from multiprocessing import shared_memory
        except ImportError:  # pragma: no cover - stdlib always has it
            return None
        image = self._database_image()
        try:
            segment = shared_memory.SharedMemory(create=True, size=len(image))
        except (OSError, PermissionError, ValueError) as exc:
            registry = get_metrics()
            if registry is not None:
                registry.inc(
                    "search.serve.shm_failures", kind=type(exc).__name__
                )
            logger.warning(
                "shared-memory segment unavailable (%s: %s); scoring "
                "shards serially",
                type(exc).__name__,
                exc,
            )
            return None
        registry = get_metrics()
        collect = registry is not None or self.tracker is not None
        wire_contexts = (
            [
                None if context is None else context.to_wire()
                for context in contexts
            ]
            if contexts is not None
            else None
        )
        try:
            segment.buf[: len(image)] = image
            tasks = [
                (
                    segment.name,
                    len(image),
                    start,
                    stop,
                    None if selection is None else selection[start:stop],
                    self.model,
                    self.scorer,
                    list(queries),
                    wire_contexts,
                    collect,
                )
                for start, stop in bounds
            ]
            raw = _map_tasks(_shard_task, tasks, workers)
        finally:
            segment.close()
            segment.unlink()
        raw.sort(key=lambda item: item[0])
        for _, _, telemetry in raw:
            spans = _merge_worker_telemetry(telemetry)
            if self.tracker is not None and spans:
                self.tracker.ingest(spans, parent="execute")
        # raw is per-shard [per-query scores]; transpose to per-query
        # [per-shard scores] in shard order.
        return [
            [vectors[position] for _, vectors, _ in raw]
            for position in range(len(queries))
        ]
