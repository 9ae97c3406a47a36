"""Microbenchmarks backing the repository's performance claims.

Run through ``python -m repro bench`` (add ``--quick`` for a fast
smoke-sized run, ``--only NAME`` for one bench). Each function returns a
report; the command writes them to the current directory:

- ``BENCH_emf.json`` — scalar vs. vectorized EMF: raw XXH32 hashing of
  an (N, D) feature matrix, and the full filter (Algorithm 1). The two
  backends are also checked for bit-identical tags and filter results,
  so the report certifies equivalence along with speed.
- ``BENCH_harness.json`` — the experiment harness on quick-mode
  workloads: per-query fresh profiling (the uncached path) vs. the
  cached harness with a cold and a warm on-disk trace cache, fanned
  across whatever cores the host offers. Results are checked identical
  between the cached and uncached paths.
- ``BENCH_search.json`` — a clone-search query stream served by the
  flat per-query loop vs. the staged serving pipeline (request dedup,
  sharded execution, candidate dedup), with queries/sec and p50/p99
  latency recorded and served rankings checked bit-identical.

Reports use the :class:`~repro.perf.timing.BenchReport` layout (schema
v2: aggregates plus raw per-repeat samples). ``repro bench`` also
appends every run to the append-only benchmark history store
(``results/obs/bench_history/``, see :mod:`repro.obs.history`) unless
``--history-dir off`` / ``REPRO_BENCH_HISTORY=off`` — the history is
what ``repro obs bench compare|trend`` gate and chart, so the perf
trajectory survives the snapshot files being overwritten.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import List, Optional, Tuple

import numpy as np

from .parallel import available_workers, parallel_run_specs
from .timing import BenchReport

__all__ = ["bench_emf", "bench_harness", "bench_search"]


def _sample_times(repeats: int, func) -> List[float]:
    """Per-repeat wall-clock seconds, in call order.

    Callers keep the min as the headline aggregate (classic timeit
    discipline) but record the full list on the BenchReport, so the
    history analytics can run median/MAD statistics over real samples.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return samples


def _duplicated_features(
    num_nodes: int, feature_dim: int, unique_rows: int, seed: int = 0
) -> np.ndarray:
    """A feature matrix with realistic duplication (the EMF's target)."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(unique_rows, feature_dim))
    return base[rng.integers(0, unique_rows, size=num_nodes)]


def bench_emf(quick: bool = False, repeats: int = 3) -> BenchReport:
    """Scalar vs. vectorized EMF hashing and filtering."""
    from ..emf.filter import elastic_matching_filter
    from ..emf.xxhash import hash_feature_matrix, hash_feature_vector

    num_nodes = 1024 if quick else 4096
    feature_dim = 64
    unique_rows = max(1, num_nodes // 8)
    features = _duplicated_features(num_nodes, feature_dim, unique_rows)

    report = BenchReport(
        "emf",
        config={
            "num_nodes": num_nodes,
            "feature_dim": feature_dim,
            "unique_rows": unique_rows,
            "repeats": repeats,
            "quick": quick,
        },
    )
    report.repeats = repeats

    def hash_scalar() -> np.ndarray:
        return np.array(
            [hash_feature_vector(row) for row in features], dtype=np.uint32
        )

    def hash_vectorized() -> np.ndarray:
        return hash_feature_matrix(features)

    def timed(variant: str, func) -> None:
        samples = _sample_times(repeats, func)
        report.add_timing(variant, min(samples), samples)

    timed("hash_scalar", hash_scalar)
    timed("hash_vectorized", hash_vectorized)
    report.add_speedup("emf_hashing", "hash_scalar", "hash_vectorized")
    tags_equal = bool(np.array_equal(hash_scalar(), hash_vectorized()))

    # Filter timing uses the hardware-faithful XXH32 method — the path
    # the vectorized backend accelerates (the "bytes" method's dict loop
    # was never the bottleneck and keeps its scalar backend under auto).
    def filter_scalar():
        return elastic_matching_filter(
            features, method="xxhash", backend="scalar"
        )

    def filter_vectorized():
        return elastic_matching_filter(
            features, method="xxhash", backend="vectorized"
        )

    timed("filter_scalar", filter_scalar)
    timed("filter_vectorized", filter_vectorized)
    report.add_speedup("emf_filter", "filter_scalar", "filter_vectorized")

    scalar_result = filter_scalar()
    vector_result = filter_vectorized()
    report.checks = {
        "tags_identical": tags_equal,
        "record_sets_identical": scalar_result.record_set
        == vector_result.record_set,
        "tag_maps_identical": scalar_result.tag_map == vector_result.tag_map,
        "num_unique": scalar_result.num_unique,
    }
    return report


def _quick_workloads(quick: bool) -> List[Tuple[str, str]]:
    from ..experiments.common import DATASET_ORDER, MODEL_ORDER

    datasets = DATASET_ORDER[:2] if quick else DATASET_ORDER[:4]
    models = MODEL_ORDER[:1] if quick else MODEL_ORDER
    return [(model, dataset) for model in models for dataset in datasets]


def _results_signature(results) -> List[Tuple[str, str, float, int]]:
    """Order-independent fingerprint of a harness result mapping."""
    signature = []
    for (model, dataset), per_platform in sorted(results.items()):
        for platform, result in sorted(per_platform.items()):
            signature.append(
                (f"{model}/{dataset}", platform, result.cycles, result.num_pairs)
            )
    return signature


def bench_harness(
    quick: bool = False, workers: Optional[int] = None
) -> BenchReport:
    """Uncached serial harness vs. the cached (and parallel) harness."""
    from ..core.api import simulate_traces
    from ..platforms import DEFAULT_PLATFORMS, RunSpec
    from ..experiments.common import (
        QUICK_BATCH,
        QUICK_PAIRS,
        clear_workload_caches,
        traces_for,
    )

    workloads = _quick_workloads(quick)
    specs = {
        (model, dataset): RunSpec.make(
            model, dataset, QUICK_PAIRS, QUICK_BATCH, 0
        )
        for model, dataset in workloads
    }
    platforms = DEFAULT_PLATFORMS
    workers = available_workers(workers)
    # The figure experiments (fig16/17/19/21/24 plus the ablations) each
    # query the same (model, dataset) workloads, so a harness run issues
    # several queries per workload. Four queries is still a conservative
    # model of that stream.
    queries = 4
    report = BenchReport(
        "harness",
        config={
            "workloads": [f"{m}/{d}" for m, d in workloads],
            "platforms": list(platforms),
            "num_pairs": QUICK_PAIRS,
            "batch_size": QUICK_BATCH,
            "workers": workers,
            "queries_per_workload": queries,
            "quick": quick,
        },
    )

    # Each harness pass is expensive, so every variant is timed once:
    # the samples list is the single reading, and the history gate's
    # ratio fallback (not the CI test) applies to this bench.
    report.repeats = 1

    def record_once(variant: str, seconds: float) -> None:
        report.add_timing(variant, seconds, [seconds])

    saved_env = os.environ.get("REPRO_TRACE_CACHE")
    try:
        # Baseline: every query re-profiles and re-simulates from
        # scratch on the per-pair "serial" engine backend (the
        # pre-caching, pre-batching behavior of one fresh process per
        # figure). With the disk cache off and the memos dropped before
        # each query, traces_for profiles afresh every time.
        os.environ["REPRO_TRACE_CACHE"] = "off"
        start = time.perf_counter()
        for _ in range(queries):
            baseline = {}
            for workload, spec in specs.items():
                clear_workload_caches()
                baseline[workload] = simulate_traces(
                    traces_for(spec), platforms, backend="serial"
                )
        record_once("serial_uncached", time.perf_counter() - start)

        def harness_pass():
            """One harness invocation: the same query stream, served by
            the memoized + disk-cached + parallel-capable runner."""
            for _ in range(queries):
                computed = parallel_run_specs(
                    list(specs.values()), platforms, workers
                )
            return {
                workload: computed[spec] for workload, spec in specs.items()
            }

        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache:
            os.environ["REPRO_TRACE_CACHE"] = cache

            # Cold cache: first harness invocation; profiles each
            # workload once, persists traces, and serves repeat queries
            # from the in-process memo.
            clear_workload_caches()
            start = time.perf_counter()
            cold = harness_pass()
            record_once("harness_cold_cache", time.perf_counter() - start)

            # Warm cache: a later harness invocation (fresh process —
            # emulated by dropping the in-process memos) replays traces
            # from disk instead of re-profiling.
            clear_workload_caches()
            start = time.perf_counter()
            warm = harness_pass()
            record_once("harness_warm_cache", time.perf_counter() - start)

            # Engine-level variants over the warm cache: identical
            # memory-mapped traces (schedule sidecar attached), simulated
            # once per backend. The batched backend consumes the array
            # summaries directly; the serial reference loop rebuilds its
            # window schedules per pair.
            backend_results = {}
            for backend in ("serial", "batched"):
                clear_workload_caches()
                per_spec = [
                    (workload, traces_for(spec))
                    for workload, spec in specs.items()
                ]
                start = time.perf_counter()
                backend_results[backend] = {
                    workload: simulate_traces(
                        traces, platforms, backend=backend
                    )
                    for workload, traces in per_spec
                }
                record_once(
                    f"sim_warm_{backend}", time.perf_counter() - start
                )
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_TRACE_CACHE", None)
        else:
            os.environ["REPRO_TRACE_CACHE"] = saved_env
        clear_workload_caches()

    report.add_speedup("harness_quick", "serial_uncached", "harness_warm_cache")
    report.add_speedup(
        "harness_cold", "serial_uncached", "harness_cold_cache"
    )
    report.add_speedup("sim_batched", "sim_warm_serial", "sim_warm_batched")
    report.checks = {
        "cold_matches_uncached": _results_signature(baseline)
        == _results_signature(cold),
        "warm_matches_uncached": _results_signature(baseline)
        == _results_signature(warm),
        "batched_matches_serial": _results_signature(
            backend_results["serial"]
        )
        == _results_signature(backend_results["batched"]),
        "num_workloads": len(workloads),
    }
    return report


def bench_search(
    quick: bool = False, repeats: int = 3, workers: Optional[int] = None
) -> BenchReport:
    """Flat per-query search loop vs. the staged serving pipeline.

    A clone-search scenario (Section III-A): the database is a clone
    database — ``database_unique`` distinct graphs cycled to
    ``database_size`` byte-identical entries — and the stream repeats
    hot queries, both of which the config records explicitly. The flat
    baseline is the pre-pipeline behaviour (one full scoring loop per
    request, no dedup, no batching); the pipeline serves the identical
    stream through admission → scheduling → sharded execution. The
    ``pipelined_matches_flat`` check asserts the served rankings are
    bit-identical to the flat loop's.

    A second scenario benchmarks sketch-gated candidate retrieval on a
    *unique-heavy* database (every entry distinct, so the executor's
    clone dedup cannot mask the pruning): the same pipeline serves the
    stream twice — flat retrieval vs. the EMF-sketch inverted index —
    and ``sketch_matches_flat`` asserts the gated rankings stay
    bit-identical while ``sketch_candidates_per_pass`` stays a strict
    subset of the pairs the flat path scores.
    """
    from ..graphs.datasets import generate_graph
    from ..graphs.pairs import substitute_edges
    from ..models import build_model
    from ..obs.metrics import metrics_enabled
    from ..search import SimilaritySearchIndex

    database_size = 64 if quick else 128
    database_unique = max(1, database_size // 4)
    num_queries = 16 if quick else 32
    distinct_queries = 4 if quick else 8
    top_k = 5

    rng = np.random.default_rng(0)
    unique = [generate_graph("AIDS", rng) for _ in range(database_unique)]
    database = [unique[i % database_unique] for i in range(database_size)]
    model = build_model("GMN-Li", input_dim=database[0].feature_dim, seed=0)
    index = SimilaritySearchIndex(model)
    index.add_many(database)
    distinct = []
    for position in range(distinct_queries):
        base = unique[int(rng.integers(database_unique))]
        distinct.append(
            base if position % 2 == 0 else substitute_edges(base, 2, rng)
        )
    stream = [
        distinct[int(rng.integers(distinct_queries))]
        for _ in range(num_queries)
    ]

    report = BenchReport(
        "search",
        config={
            "model": "GMN-Li",
            "dataset": "AIDS",
            "database_size": database_size,
            "database_unique": database_unique,
            "num_queries": num_queries,
            "distinct_queries": distinct_queries,
            "top_k": top_k,
            "workers": available_workers(workers),
            "repeats": repeats,
            "quick": quick,
        },
    )

    report.repeats = repeats

    def flat_pass():
        return [index._query_flat(graph, top_k) for graph in stream]

    flat_samples = _sample_times(repeats, flat_pass)
    report.add_timing("flat_per_query", min(flat_samples), flat_samples)

    pipeline = index.pipeline(workers=workers)

    def pipelined_pass():
        return pipeline.serve(stream, top_k)

    with metrics_enabled() as registry:
        serve_samples = _sample_times(repeats, pipelined_pass)
        report.add_timing(
            "serve_pipelined", min(serve_samples), serve_samples
        )
        served = pipelined_pass()
        latency = registry.histogram("search.serve.latency_seconds")
        passes = repeats + 1
        deduped_requests = (
            registry.counter("search.serve.deduped_requests") / passes
        )
        dedup_hits = (
            registry.counter("search.serve.candidate_dedup_hits") / passes
        )
    report.add_speedup("search_serve", "flat_per_query", "serve_pipelined")

    flat = flat_pass()
    matches = all(
        response is not None and list(response.results) == expected
        for response, expected in zip(served, flat)
    )

    # Scenario 2: sketch-gated retrieval over a unique-heavy database.
    # Per-query batches keep the scored set equal to each query's own
    # candidate set (a batch scores the union of its groups' sets, so
    # batching would blur the pruning being measured). recall_floor=0.6
    # is the empirically-gated setting at which the gated rankings are
    # bit-identical to flat on this workload — the same knob the
    # ``search.sketch_vs_flat`` check turns.
    from ..search.sketch import SketchConfig

    sketch_top_k = 3
    sketch_floor = 0.6
    sketch_rng = np.random.default_rng(1)
    sketch_db = [
        generate_graph("AIDS", sketch_rng) for _ in range(database_size)
    ]
    sketch_index = SimilaritySearchIndex(
        build_model("GMN-Li", input_dim=sketch_db[0].feature_dim, seed=0)
    )
    sketch_index.add_many(sketch_db)
    sketch_distinct = []
    for position in range(distinct_queries):
        base = sketch_db[int(sketch_rng.integers(database_size))]
        sketch_distinct.append(
            base
            if position % 2 == 0
            else substitute_edges(base, 2, sketch_rng)
        )
    sketch_stream = [
        sketch_distinct[int(sketch_rng.integers(distinct_queries))]
        for _ in range(num_queries)
    ]
    sketch_config = SketchConfig(
        min_candidates=sketch_top_k, recall_floor=sketch_floor
    )
    sketch_off = sketch_index.pipeline(max_batch_queries=1, workers=workers)
    sketch_on = sketch_index.pipeline(
        retrieval="sketch",
        sketch_config=sketch_config,
        max_batch_queries=1,
        workers=workers,
    )
    # Materialize the sketch store outside the timed region: building
    # it is a one-time indexing cost, not a per-query one.
    sketch_on.serve(sketch_stream[:1], sketch_top_k)

    def sketch_off_pass():
        return sketch_off.serve(sketch_stream, sketch_top_k)

    def sketch_on_pass():
        return sketch_on.serve(sketch_stream, sketch_top_k)

    off_samples = _sample_times(repeats, sketch_off_pass)
    report.add_timing("serve_sketch_off", min(off_samples), off_samples)
    candidates_before = sketch_on.retriever.candidates_retrieved
    on_samples = _sample_times(repeats, sketch_on_pass)
    report.add_timing("serve_sketch_on", min(on_samples), on_samples)
    served_sketch = sketch_on_pass()
    report.add_speedup("search_sketch", "serve_sketch_off", "serve_sketch_on")
    sketch_candidates_per_pass = (
        sketch_on.retriever.candidates_retrieved - candidates_before
    ) / (repeats + 1)
    sketch_pairs_flat = num_queries * database_size
    sketch_flat = [
        sketch_index._query_flat(graph, sketch_top_k)
        for graph in sketch_stream
    ]
    sketch_matches = all(
        response is not None and list(response.results) == expected
        for response, expected in zip(served_sketch, sketch_flat)
    )
    report.config["sketch_top_k"] = sketch_top_k
    report.config["sketch_recall_floor"] = sketch_floor

    report.checks = {
        "pipelined_matches_flat": matches,
        "sketch_matches_flat": sketch_matches,
        "sketch_candidates_per_pass": sketch_candidates_per_pass,
        "sketch_pairs_per_pass_flat": sketch_pairs_flat,
        "sketch_prunes_candidates": sketch_candidates_per_pass
        < sketch_pairs_flat,
        "flat_queries_per_second": num_queries
        / report.timings["flat_per_query"],
        "pipelined_queries_per_second": num_queries
        / report.timings["serve_pipelined"],
        "latency_p50_seconds": latency.quantile(0.5),
        "latency_p99_seconds": latency.quantile(0.99),
        "deduped_requests_per_pass": deduped_requests,
        "candidate_dedup_hits_per_pass": dedup_hits,
    }
    return report
