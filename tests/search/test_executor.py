"""Tests for the sharded execution layer."""

import numpy as np
import pytest

from repro.graphs import generate_graph
from repro.models import build_model
from repro.obs import LATENCY_BUCKETS, metrics_enabled
from repro.obs.tracing import Tracer, tracing_enabled
from repro.perf.parallel import shared_memory_map
from repro.search.executor import (
    ShardedExecutor,
    _dedup_scores,
    _score_shard,
    shard_bounds,
)
from repro.search.requests import QueryRequest
from repro.search.scheduler import BatchScheduler
from repro.search.storage import graph_signature, graphs_to_npz_bytes


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(2)
    base = [generate_graph("AIDS", rng) for _ in range(5)]
    # Clones exercise the candidate dedup; duplicates are interleaved.
    return base + [base[1], base[3]]


@pytest.fixture(scope="module")
def model(database):
    return build_model("GMN-Li", input_dim=database[0].feature_dim)


def _batch(scheduler, graphs, top_k=3):
    requests = [
        QueryRequest(request_id=i, graph=graph, top_k=top_k, submitted_at=0.0)
        for i, graph in enumerate(graphs)
    ]
    (batch,) = scheduler.build_batches(requests)
    return batch


class TestShardBounds:
    @pytest.mark.parametrize("size,shards", [(1, 1), (7, 3), (8, 3), (5, 9)])
    def test_covers_every_index_once(self, size, shards):
        bounds = shard_bounds(size, shards)
        covered = [i for start, stop in bounds for i in range(start, stop)]
        assert covered == list(range(size))
        assert len(bounds) <= min(shards, size)

    def test_empty_database(self):
        assert shard_bounds(0, 4) == []

    def test_near_equal_split(self):
        sizes = [stop - start for start, stop in shard_bounds(10, 3)]
        assert max(sizes) - min(sizes) <= 1 or sizes == [4, 4, 2]


class TestDedupScores:
    def test_duplicates_scored_once(self, database):
        calls = []

        def score(graph):
            calls.append(graph)
            return float(graph.num_nodes)

        signatures = [graph_signature(graph) for graph in database]
        scores, saved = _dedup_scores(score, database, signatures)
        assert saved == 2  # the two planted clones
        assert len(calls) == len(database) - 2
        # Broadcast scores are bit-identical to their representative.
        assert scores[5] == scores[1]
        assert scores[6] == scores[3]


class TestExecutor:
    def test_rankings_match_flat_reference(self, database, model):
        from repro.search import SimilaritySearchIndex

        index = SimilaritySearchIndex(model)
        index.add_many(database)
        executor = ShardedExecutor(model, index._graphs, num_shards=3, workers=1)
        queries = [database[0], database[4]]
        batch = _batch(BatchScheduler(), queries)
        rankings = executor.run_batch(batch)
        for query, ranking in zip(queries, rankings):
            assert list(ranking) == index._query_flat(query, top_k=3)

    def test_empty_database_yields_empty_rankings(self, database, model):
        executor = ShardedExecutor(model, [])
        batch = _batch(BatchScheduler(), [database[0]])
        assert executor.run_batch(batch) == [tuple()]

    def test_candidate_selection_restricts_and_matches_flat(
        self, database, model
    ):
        """Scoring a candidate subset ranks exactly the flat order
        restricted to that subset (database indices preserved)."""
        from repro.search import SimilaritySearchIndex

        index = SimilaritySearchIndex(model)
        index.add_many(database)
        executor = ShardedExecutor(
            model, index._graphs, num_shards=2, workers=1
        )
        batch = _batch(BatchScheduler(), [database[0]], top_k=3)
        selection = np.array([0, 2, 5, 6], dtype=np.int64)
        (ranking,) = executor.run_batch(batch, candidates=selection)
        flat = index._query_flat(database[0], top_k=len(database))
        expected = [r for r in flat if r.index in set(selection.tolist())][:3]
        assert list(ranking) == expected

    def test_empty_candidate_selection(self, database, model):
        executor = ShardedExecutor(model, list(database), workers=1)
        batch = _batch(BatchScheduler(), [database[0]])
        candidates = np.empty(0, dtype=np.int64)
        assert executor.run_batch(batch, candidates=candidates) == [tuple()]

    def test_out_of_range_candidates_rejected(self, database, model):
        executor = ShardedExecutor(model, list(database), workers=1)
        batch = _batch(BatchScheduler(), [database[0]])
        with pytest.raises(IndexError):
            executor.run_batch(
                batch, candidates=np.array([0, len(database)])
            )

    def test_candidate_dedup_counter(self, database, model):
        executor = ShardedExecutor(model, list(database), workers=1)
        batch = _batch(BatchScheduler(), [database[0]])
        with metrics_enabled() as registry:
            executor.run_batch(batch)
        assert registry.counter("search.serve.candidate_dedup_hits") == 2

    def test_signature_cache_follows_database_growth(self, database, model):
        graphs = list(database[:3])
        executor = ShardedExecutor(model, graphs)
        assert len(executor.signatures()) == 3
        graphs.append(database[3])
        assert len(executor.signatures()) == 4
        del graphs[1:]
        assert len(executor.signatures()) == 1


def _run_shard(database, model, start, stop, queries, members, tracer):
    """Run the shard worker body through the shared-memory transport.

    ``workers=1`` keeps the task in-process, so this covers publish →
    attach → zero-copy read → telemetry merge even on single-core hosts
    where the pool path never runs. Returns the per-query vectors.
    """
    (vectors,) = shared_memory_map(
        _score_shard,
        graphs_to_npz_bytes(database),
        [(start, stop, None, model, None, queries, members)],
        1,
        failure_counter="search.serve.shm_failures",
        fallback="test",
        tracer=tracer,
    )
    return vectors


class TestShardTask:
    def test_worker_body_in_process(self, database, model):
        """Exercise the worker path against a real shared-memory segment."""
        start, stop = 2, len(database)
        # Not tracing: a tracer active in the parent receives nothing.
        with metrics_enabled() as registry, tracing_enabled() as active:
            vectors = _run_shard(
                database, model, start, stop, [database[0]], None, None
            )
        assert len(vectors) == 1 and vectors[0].shape == (stop - start,)
        # The shard holds database[2:] — the clone of database[3] has its
        # representative in-shard, so per-shard dedup saves one pass.
        assert registry.counter("search.serve.candidate_dedup_hits") == 1
        assert len(active) == 0

        # The raw scores equal in-process scoring of the same slice.
        from repro.search.executor import _pair_score

        expected = [
            _pair_score(model, None, candidate, database[0])
            for candidate in database[start:stop]
        ]
        assert vectors[0].tolist() == expected


class TestWorkerTelemetry:
    """Request telemetry across the shm worker boundary (in-process).

    ``_score_shard`` runs through :func:`shared_memory_map` against a
    real shared-memory segment — the same path the pool runs — so the
    cross-process contract is covered even on single-core hosts where
    the pool path never runs.
    """

    def test_context_crosses_the_worker_boundary(self, database, model):
        """Member request ids ride the task tuple as plain integers and
        come back on the worker's shard span."""
        tracer = Tracer()
        with metrics_enabled() as registry:
            _run_shard(
                database, model, 0, len(database), [database[0]],
                [(42, 43)], tracer,
            )
        (span_payload,) = tracer.events
        assert list(span_payload["request_ids"]) == [42, 43]
        assert span_payload["name"] == "execute.shard"
        assert span_payload["parent"] == "execute"
        assert span_payload["args"]["shard"] == f"0:{len(database)}"
        assert span_payload["pid"] == Tracer().pid
        assert registry.counter("obs.context.worker_failures") == 0

    def test_nondefault_bounds_survive_the_merge(self, database, model):
        """Satellite check: LATENCY_BUCKETS histograms merge exactly.

        The worker's ``search.serve.shard_seconds`` histogram uses
        non-default bucket bounds; a merge that re-created it with
        DEFAULT_BUCKETS would corrupt every quantile.
        """
        tracer = Tracer()
        with metrics_enabled() as registry:
            _run_shard(
                database, model, 0, len(database), [database[0]],
                [(1,)], tracer,
            )
            _run_shard(
                database, model, 0, len(database),
                [database[0], database[1]], [(2,), (3,)], tracer,
            )
        merged = registry.histogram("search.serve.shard_seconds")
        assert merged.bounds == LATENCY_BUCKETS
        assert merged.count == 3  # one query + two queries
        assert merged.total == pytest.approx(
            sum(event["dur"] for event in tracer.events) / 1e6
        )
        # Spans from both workers survive and rejoin request trees.
        assert len(tracer) == 3
        assert tracer.request_ids() == [1, 2, 3]

    def test_executor_ingests_worker_spans(self, database, model):
        """End-to-end: tracer-on run_batch yields shard spans."""
        tracer = Tracer()
        executor = ShardedExecutor(
            model, list(database), workers=1, tracer=tracer
        )
        request = QueryRequest(
            request_id=0,
            graph=database[0],
            top_k=3,
            submitted_at=0.0,
        )
        (batch,) = BatchScheduler().build_batches([request])
        executor.run_batch(batch, pending_since=0.0)
        spans = {span["name"] for span in tracer.spans_for(0)}
        assert {"pending", "execute", "execute.shard", "rank"} <= spans
        (shard_span,) = [
            span
            for span in tracer.spans_for(0)
            if span["name"] == "execute.shard"
        ]
        assert shard_span["parent"] == "execute"


class TestShardedFaults:
    """Fault injection on the sharded path: ``workers=2`` is forced so
    the pool path engages on any host, then the pool or the segment is
    broken. Either way the rankings equal the flat path, the fallback
    is counted once, and the shard spans survive."""

    @pytest.fixture
    def sharded(self, database, model, monkeypatch):
        from repro.search import SimilaritySearchIndex
        from repro.search import executor as executor_mod

        monkeypatch.setattr(
            executor_mod, "available_workers", lambda requested=None: 2
        )
        index = SimilaritySearchIndex(model)
        index.add_many(database)
        tracer = Tracer()
        executor = ShardedExecutor(
            model, index._graphs, workers=2, tracer=tracer
        )
        queries = [database[0], database[4]]
        batch = _batch(BatchScheduler(), queries)

        def serve():
            with metrics_enabled() as registry:
                rankings = executor.run_batch(batch, pending_since=0.0)
            for query, ranking in zip(queries, rankings):
                assert list(ranking) == index._query_flat(query, top_k=3)
            shard_spans = [
                event for event in tracer.events
                if event["name"] == "execute.shard"
            ]
            assert shard_spans
            return registry

        return serve

    def test_worker_death_reruns_shards_in_process(
        self, sharded, monkeypatch
    ):
        from repro.perf import parallel
        from tests.perf import test_parallel

        monkeypatch.setattr(
            parallel,
            "ProcessPoolExecutor",
            test_parallel.TestWorkerDeathFallback._DyingPool,
        )
        registry = sharded()
        assert (
            registry.counter(
                "perf.parallel.worker_failures", kind="BrokenProcessPool"
            )
            == 1
        )
        assert registry.counter("search.serve.shm_failures", kind="OSError") == 0

    def test_segment_failure_scores_serially(self, sharded, monkeypatch):
        from multiprocessing import shared_memory

        def _refuse(*args, **kwargs):
            raise OSError("no shared memory on this host")

        monkeypatch.setattr(shared_memory, "SharedMemory", _refuse)
        registry = sharded()
        assert (
            registry.counter("search.serve.shm_failures", kind="OSError") == 1
        )
        assert (
            registry.counter(
                "perf.parallel.worker_failures", kind="BrokenProcessPool"
            )
            == 0
        )
