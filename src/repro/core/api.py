"""High-level public API.

Three entry points cover the common uses of this reproduction:

- :func:`filtered_similarity_matrix` — the EMF-accelerated software path:
  compute only unique rows/columns of the similarity matrix and
  broadcast, with exact (bit-identical) results. This is the paper's core
  idea usable as a plain library function.
- :func:`simulate_workload` — run a model over a dataset and simulate
  every requested platform on the identical trace; the engine behind all
  evaluation figures.
- :func:`compare_platforms` — the same, reduced to a speedup table.

Platform names are resolved through
:data:`repro.platforms.REGISTRY`, so every entry point accepts spec
strings (``"CEGMA@bandwidth_gbps=512"``) in addition to registered
names.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..counters import FlopCounter
from ..emf.filter import MatchingPlan
from ..graphs.datasets import load_dataset
from ..models import build_model, similarity_matrix
from ..obs.tracing import span
from ..platforms import DEFAULT_PLATFORMS, REGISTRY, RunSpec
from ..sim import PlatformResult
from ..trace.profiler import BatchTrace, profile_batches

__all__ = [
    "DEFAULT_PLATFORMS",
    "filtered_similarity_matrix",
    "simulate_workload",
    "simulate_traces",
    "compare_platforms",
    "serve_query_stream",
]


def filtered_similarity_matrix(
    x: np.ndarray,
    y: np.ndarray,
    kind: str = "dot",
    flops: Optional[FlopCounter] = None,
) -> np.ndarray:
    """All-to-all similarity via the Elastic Matching Filter.

    Detects duplicate rows in ``x`` and ``y`` (Algorithm 1), computes the
    similarity of unique rows/columns only, and broadcasts to the full
    matrix. The result is exactly equal to
    :func:`repro.models.similarity_matrix` — the EMF is lossless — while
    the FLOPs recorded reflect only the unique workload.
    """
    plan = MatchingPlan.from_features(x, y)
    unique_x = x[plan.target_filter.unique_indices]
    unique_y = y[plan.query_filter.unique_indices]
    unique = similarity_matrix(unique_x, unique_y, kind, flops)
    return plan.broadcast(unique)


def simulate_traces(
    batch_traces: Sequence[BatchTrace],
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    backend: Optional[str] = None,
) -> Dict[str, PlatformResult]:
    """Simulate pre-profiled traces on each requested platform.

    Each entry of ``platforms`` may be a registered name or a spec
    string; results are keyed by the string exactly as requested.
    ``backend`` selects the accelerator-simulator execution strategy
    (``"batched"`` — the default — or the deprecated per-pair
    ``"serial"`` path, see :data:`repro.sim.engine.SIM_BACKENDS`);
    software platform models ignore it.
    """
    results: Dict[str, PlatformResult] = {}
    for platform in platforms:
        simulator = REGISTRY.build(platform)
        if backend is not None and hasattr(simulator, "backend"):
            # Only the accelerator simulators have an execution backend;
            # analytic software models (PyG-CPU/GPU) do not.
            simulator.backend = _validated_backend(backend)
        with span("simulate", platform=platform):
            results[platform] = simulator.simulate_batches(list(batch_traces))
    return results


def _validated_backend(backend: str) -> str:
    from ..sim.engine import SIM_BACKENDS

    if backend not in SIM_BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"expected one of {SIM_BACKENDS}"
        )
    return backend


def simulate_workload(
    model_name: str,
    dataset_name: str,
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    num_pairs: int = 8,
    batch_size: int = 32,
    seed: int = 0,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[str, PlatformResult]:
    """Profile a model on a dataset and simulate all platforms.

    This is the workhorse behind the evaluation figures: one trace per
    workload, shared by every platform, so comparisons are apples to
    apples. ``jobs`` > 1 splits the graph pairs into batch-aligned
    chunks and runs them across worker processes (see
    :mod:`repro.perf.parallel`); cycle counts are unchanged, merged
    float accumulators may differ from serial at the ulp level.
    ``backend`` is forwarded to :func:`simulate_traces`.
    """
    spec = RunSpec.make(model_name, dataset_name, num_pairs, batch_size, seed)
    if jobs is not None and jobs != 1:
        from ..perf.parallel import parallel_simulate_workload

        return parallel_simulate_workload(
            spec, platforms, workers=jobs, backend=backend
        )
    with span("profile", spec=spec.stem):
        pairs = load_dataset(
            spec.dataset, seed=spec.seed, num_pairs=spec.num_pairs
        )
        input_dim = pairs[0].target.feature_dim
        model = build_model(spec.model, input_dim=input_dim, seed=spec.seed)
        batch_traces = profile_batches(model, pairs, batch_size=spec.batch_size)
    return simulate_traces(batch_traces, platforms, backend=backend)


def compare_platforms(
    model_name: str,
    dataset_name: str,
    baseline: str = "PyG-CPU",
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    num_pairs: int = 8,
    batch_size: int = 32,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[str, float]:
    """Speedup of every platform over the chosen baseline."""
    results = simulate_workload(
        model_name, dataset_name, platforms, num_pairs, batch_size, seed, jobs
    )
    if baseline not in results:
        raise KeyError(f"baseline {baseline!r} not among simulated platforms")
    reference = results[baseline].latency_seconds
    return {
        name: reference / result.latency_seconds
        for name, result in results.items()
    }


def serve_query_stream(
    model_name: str,
    dataset_name: str,
    num_queries: int = 16,
    database_size: int = 32,
    database_unique: Optional[int] = None,
    distinct_queries: Optional[int] = None,
    top_k: int = 5,
    policy: str = "fifo",
    max_batch_queries: int = 8,
    num_shards: Optional[int] = None,
    workers: Optional[int] = None,
    retrieval: str = "flat",
    max_queue_depth: int = 1024,
    timeout_seconds: Optional[float] = None,
    seed: int = 0,
    request_tracing: bool = False,
    window_seconds: Optional[float] = None,
    max_windows: int = 120,
    exemplar_slowest: int = 8,
    on_window=None,
) -> Dict[str, object]:
    """Drive a synthetic query stream through the serving pipeline.

    The scenario of Section III-A made executable: a graph database
    built from ``dataset_name``'s generator, a stream of clone-search
    queries (exact database members mixed with lightly perturbed
    variants, with hot queries repeating), served through the staged
    pipeline — admission, policy batching, sharded execution, ranking.

    ``database_unique`` models a clone database: the database holds
    that many distinct graphs, cycled to ``database_size`` entries
    (byte-identical clones, which the executor's candidate dedup
    collapses). Defaults to fully unique. ``distinct_queries`` bounds
    the number of distinct query graphs in the stream (defaults to
    ``min(num_queries, 8)``); repeats model hot queries and exercise
    the scheduler's request dedup.

    ``retrieval`` selects the execution scope per batch: ``"flat"``
    scores the whole database, ``"sketch"`` retrieves a candidate set
    from the EMF/WL MinHash index first (see
    :mod:`repro.search.sketch`) and reranks it exactly.

    Request-scoped telemetry is opt-in and layered: ``request_tracing``
    attaches a :class:`~repro.obs.context.RequestTracker` (per-request
    span trees, ``search.serve.budget_seconds{stage=...}``) and an
    :class:`~repro.obs.exemplars.ExemplarBuffer` keeping the
    ``exemplar_slowest`` slowest plus all expired requests;
    ``window_seconds`` attaches a
    :class:`~repro.obs.timeseries.TimeseriesRecorder` snapshotting
    counter rates and histogram p50/p99 each interval (``on_window``
    fires per closed window — e.g. a JSONL sink). Both are free when
    left off.

    Returns ``{"responses", "pipeline", "stats", "config"}`` — stats
    is the pipeline's counter/latency snapshot plus stream accounting
    (``served`` / ``rejected_submissions``). With tracing on, the
    result also carries ``tracker`` / ``exemplars``; with windowed
    recording, ``recorder`` and the closed ``windows`` (as dicts).
    """
    from ..graphs.datasets import generate_graph
    from ..graphs.pairs import substitute_edges
    from ..models import build_model
    from ..search import SimilaritySearchIndex

    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if database_size < 1:
        raise ValueError("database_size must be >= 1")
    if database_unique is None:
        database_unique = database_size
    database_unique = max(1, min(database_unique, database_size))
    if distinct_queries is None:
        distinct_queries = min(num_queries, 8)
    distinct_queries = max(1, min(distinct_queries, num_queries))

    rng = np.random.default_rng(seed)
    unique_graphs = [
        generate_graph(dataset_name, rng) for _ in range(database_unique)
    ]
    database = [
        unique_graphs[i % database_unique] for i in range(database_size)
    ]
    model = build_model(
        model_name, input_dim=database[0].feature_dim, seed=seed
    )
    index = SimilaritySearchIndex(model)
    index.add_many(database)

    distinct = []
    for position in range(distinct_queries):
        base = database[int(rng.integers(len(database)))]
        distinct.append(
            base if position % 2 == 0 else substitute_edges(base, 2, rng)
        )
    stream = [
        distinct[int(rng.integers(distinct_queries))]
        for _ in range(num_queries)
    ]

    tracker = exemplars = recorder = None
    if request_tracing:
        from ..obs.context import RequestTracker
        from ..obs.exemplars import ExemplarBuffer

        tracker = RequestTracker()
        exemplars = ExemplarBuffer(k_slowest=exemplar_slowest)
    if window_seconds is not None:
        from ..obs.timeseries import TimeseriesRecorder

        recorder = TimeseriesRecorder(
            interval_seconds=window_seconds,
            max_windows=max_windows,
            on_window=on_window,
        )

    pipeline = index.pipeline(
        policy=policy,
        max_batch_queries=max_batch_queries,
        max_queue_depth=max_queue_depth,
        num_shards=num_shards,
        workers=workers,
        retrieval=retrieval,
        tracker=tracker,
        recorder=recorder,
        exemplars=exemplars,
    )
    with span("serve.stream", queries=num_queries, database=database_size):
        responses = pipeline.serve(stream, top_k, timeout_seconds)
    if recorder is not None:
        # Close the tail window so short runs still produce output.
        recorder.maybe_snapshot(force=True)

    stats = pipeline.stats()
    stats["served"] = float(
        sum(1 for response in responses if response is not None and response.ok)
    )
    stats["rejected_submissions"] = float(
        sum(1 for response in responses if response is None)
    )
    outcome: Dict[str, object] = {
        "responses": responses,
        "pipeline": pipeline,
        "stats": stats,
    }
    if tracker is not None:
        outcome["tracker"] = tracker
        outcome["exemplars"] = exemplars
    if recorder is not None:
        outcome["recorder"] = recorder
        outcome["windows"] = recorder.window_dicts()
    outcome["config"] = {
        "model": model_name,
        "dataset": dataset_name,
        "num_queries": num_queries,
        "database_size": database_size,
        "database_unique": database_unique,
        "distinct_queries": distinct_queries,
        "top_k": top_k,
        "policy": str(policy),
        "retrieval": str(retrieval),
        "max_batch_queries": max_batch_queries,
        "seed": seed,
    }
    return outcome
