"""The benchmark's workloads: two serving traffic mixes and a sweep.

Each workload makes its inputs from the seed alone and hands them to the
program through public names only. A run sets up several times (the
median is ``setup_s``), measures for the given seconds, then checks
every answer it can outside the timed region.

- ``serve-unique``: closed loop, one client, 8 distinct perturbed AIDS
  queries per op against 128 unique AIDS graphs, flat retrieval.
  Request dedup, candidate dedup and sketch retrieval have nothing to
  do, so model work and the executor's worker pool dominate.
- ``serve-hot``: open loop, Poisson arrivals at a fixed rate from a
  Zipf-hot pool of 32 queries (half exact members, half perturbed)
  against 128 entries cloned from 32 AIDS graphs, sketch retrieval on,
  and one ``index.add`` after every 16th query. The serving loop runs
  one round per interval while requests are queued.
- ``sim-sweep``: the figure pipeline. Setup profiles GMN-Li and SimGNN
  traces on COLLAB and RD-B; each op is one ``simulate_traces`` call
  for one design point of a fixed list. Every pass over the list starts
  from fresh copies of the traces, so no schedule memo survives from
  the pass before.

With ``trace`` set, a run measures twice: once plain and once with
spans around each layer's public entry points and the program's metric
registry on. The per-layer metrics come from the traced half; comparing
the halves gives the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import pickle
import resource
import statistics
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import simulate_traces
from repro.counters import PHASES
from repro.graphs.datasets import generate_graph, load_dataset
from repro.graphs.pairs import GraphPair, substitute_edges
from repro.models import build_model
from repro.obs import metrics_enabled
from repro.perf.parallel import available_workers
from repro.platforms import REGISTRY
from repro.search import SimilaritySearchIndex, graph_signature
from repro.trace.profiler import profile_batches

import verifier
from spans import Tracer

TOP_K = 5
SETUP_REPEATS = 3
MODEL = "GMN-Li"
GMN_LAYERS = 5
#: serve-hot's serving loop runs one round per interval when work is
#: queued, batching what arrived in between.
ROUND_INTERVAL = 0.25
#: Seed of the serve-hot arrival times, fixed across benchmark seeds.
ARRIVAL_SEED = 0

clock = time.perf_counter


@dataclass(frozen=True)
class Size:
    """Input sizes; ``TINY`` keeps the self-tests fast."""

    database: int = 128
    queries_per_op: int = 8
    hot_unique: int = 32
    hot_pool: int = 32
    hot_rate: float = 3.5
    add_every: int = 16
    sim_sets: Tuple[Tuple[str, int], ...] = (("COLLAB", 32), ("RD-B", 16))
    sim_batch: int = 8
    sample_pairs: int = 16
    name: str = "full"


FULL = Size()
TINY = Size(
    database=16,
    queries_per_op=4,
    hot_unique=8,
    hot_pool=8,
    hot_rate=20.0,
    add_every=4,
    sim_sets=(("COLLAB", 8), ("RD-B", 8)),
    sample_pairs=4,
    name="tiny",
)

SIM_MODELS = ("GMN-Li", "SimGNN")
SIM_SPECS: Tuple[str, ...] = tuple(
    [
        f"{base}@buffer_kb={kb}"
        for base in ("CEGMA", "HyGCN", "AWB-GCN")
        for kb in (64, 256, 1024)
    ]
    + [
        f"{base}@bandwidth_gbps={gbps}"
        for base in ("CEGMA", "HyGCN")
        for gbps in (128, 512)
    ]
    + ["PyG-CPU", "PyG-GPU", "CEGMA-EMF", "CEGMA-CGC"]
)


# -- small helpers --------------------------------------------------------
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counter_total(registry, name: str) -> float:
    """Sum of a counter over all of its label sets."""
    return sum(
        value
        for key, value in registry.counters.items()
        if key == name or key.startswith(name + "{")
    )


def row_dup_share(features: np.ndarray) -> Tuple[int, int]:
    """(duplicate rows, rows): rows byte-identical to an earlier row."""
    rows = np.ascontiguousarray(features)
    if rows.shape[0] == 0:
        return 0, 0
    keys = {row.tobytes() for row in rows}
    return rows.shape[0] - len(keys), rows.shape[0]


def model_sample_metrics(model_traces, seconds: float) -> Dict[str, float]:
    """``models.*`` and per-layer duplicate-row shares of a pair sample.

    ``model_traces`` are ``PairTrace`` objects from ``forward_pair`` on
    the workload's own pairs; ``seconds`` is the time those calls took.
    """
    flops = {phase: 0.0 for phase in PHASES}
    dup = [[0, 0] for _ in range(GMN_LAYERS)]
    for trace in model_traces:
        for layer in trace.layers:
            for phase in PHASES:
                flops[phase] += layer.flops.counts.get(phase, 0)
        for phase in PHASES:
            flops[phase] += trace.readout_flops.counts.get(phase, 0)
        if trace.model_name != MODEL:
            continue
        for position, layer in enumerate(trace.layers[:GMN_LAYERS]):
            for features in (layer.target_features, layer.query_features):
                dups, rows = row_dup_share(features)
                dup[position][0] += dups
                dup[position][1] += rows
    count = max(1, len(model_traces))
    per_pair_us = seconds / count * 1e6
    total = sum(flops.values()) / count
    out = {
        "models.forward_pair_us": per_pair_us,
        "models.flops_per_pair": total,
        "models.gflop_per_s": total / (per_pair_us * 1e3) if per_pair_us else 0.0,
    }
    for phase in PHASES:
        out[f"models.flops_per_pair.{phase}"] = flops[phase] / count
    for position, (dups, rows) in enumerate(dup):
        out[f"workload.dup_row_share.l{position}"] = dups / rows if rows else 0.0
    return out


def unique_graphs(dataset: str, count: int, rng) -> list:
    """``count`` generated graphs, no two byte-identical."""
    graphs, seen = [], set()
    for _ in range(100 * count):
        if len(graphs) == count:
            break
        graph = generate_graph(dataset, rng)
        key = graph_signature(graph)
        if key not in seen:
            seen.add(key)
            graphs.append(graph)
    if len(graphs) < count:
        raise RuntimeError(f"{dataset} gave fewer than {count} distinct graphs")
    return graphs


def perturbed(graph, rng, taken: set):
    """A 2-edge perturbation whose signature is not in ``taken``.

    None when 16 perturbations all collide, as they do for a graph too
    small to rewire.
    """
    for _ in range(16):
        query = substitute_edges(graph, 2, rng)
        if graph_signature(query) not in taken:
            return query
    return None


def time_forward(model, pairs) -> Tuple[list, float]:
    started = clock()
    traces = [model.forward_pair(pair) for pair in pairs]
    return traces, clock() - started


@dataclass
class Measurement:
    """What one timed loop produced; checked after timing ends."""

    ops: List[dict] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    recalls: List[float] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


# -- serving ----------------------------------------------------------------
class _Serving:
    """State and per-layer readout shared by the two serving workloads."""

    retrieval = "flat"

    def __init__(self, seed: int, size: Size) -> None:
        self.seed = seed
        self.size = size
        self.model = None
        self.index = None
        self.pipe = None

    # -- setup ------------------------------------------------------------
    def warmup_queries(self) -> list:
        raise NotImplementedError

    def setup(self, tracer: Optional[Tracer] = None) -> float:
        """Model build, ``add_many``, pipeline, one warm-up op."""
        started = clock()
        graphs = self.graphs
        self.model = build_model(MODEL, input_dim=graphs[0].feature_dim, seed=0)
        self.index = SimilaritySearchIndex(self.model)
        if tracer is not None:
            tracer.wrap(self.index, "add", "index.add")
        self.index.add_many(graphs)
        self.pipe = self.index.pipeline(retrieval=self.retrieval)
        for query in self.warmup_queries():
            self.pipe.submit(query, TOP_K)
        self.pipe.run_until_drained()
        return clock() - started

    def brute_force(self) -> verifier.BruteForce:
        return verifier.BruteForce(self.model)

    # -- traced run -------------------------------------------------------
    def install(self, tracer: Tracer, state: dict) -> None:
        """Span wrappers on the live pipeline's stage objects."""
        pipe = self.pipe
        state.update(waits=[], requests=0, groups=0, batches=0,
                     logical_pairs=0, retrieved=0, padded=0, slots=0)
        queue = getattr(pipe, "queue", None)

        def after_take(result, *args, **kwargs):
            live, dead = result
            taken = queue.last_take_at
            state["waits"].extend(taken - r.submitted_at for r in live)
            return {"request_ids": [r.request_id for r in list(live) + list(dead)]}

        tracer.wrap(queue, "take", "requests.take", after=after_take)

        def after_build(batches, requests, *args, **kwargs):
            state["requests"] += len(requests)
            state["groups"] += sum(len(b.groups) for b in batches)
            state["batches"] += len(batches)
            return {"request_ids": [r.request_id for r in requests]}

        tracer.wrap(getattr(pipe, "scheduler", None), "build_batches",
                    "scheduler.build_batches", after=after_build)

        retriever = getattr(pipe, "retriever", None)
        if retriever is not None:
            def before_retrieve(queries, *args, **kwargs):
                state["_stats"] = retriever.stats()
                return {"queries": len(queries)}

            def after_retrieve(result, queries, *args, **kwargs):
                now, was = retriever.stats(), state.pop("_stats")
                state["retrieved"] += now["sketch_candidates"] - was["sketch_candidates"]
                state["padded"] += now["sketch_floor_padded"] - was["sketch_floor_padded"]
                state["slots"] += len(queries) * len(self.index)
                return {"candidates": len(result)}

            tracer.wrap(retriever, "retrieve_batch", "sketch.retrieve_batch",
                        before=before_retrieve, after=after_retrieve)
        else:
            tracer.absent.append("sketch.retrieve_batch")

        def after_run(result, batch, *args, **kwargs):
            candidates = kwargs.get("candidates")
            width = len(self.index) if candidates is None else len(candidates)
            state["logical_pairs"] += len(batch.groups) * width
            return {
                "request_ids": [
                    r.request_id for g in batch.groups for r in g.requests
                ],
                "pairs": len(batch.groups) * width,
            }

        tracer.wrap(getattr(pipe, "executor", None), "run_batch",
                    "executor.run_batch", after=after_run)

    def layer_metrics(self, tracer: Tracer, state: dict, registry,
                      served: int) -> Dict[str, float]:
        per_request = 1000.0 / max(1, served)
        scored = state["logical_pairs"] - counter_total(
            registry, "search.serve.candidate_dedup_hits"
        )
        executor_us = tracer.busy_seconds("executor.run_batch") * 1e6
        sample_pairs = self.sample_pairs()
        traces, seconds = time_forward(self.model, sample_pairs)
        models = model_sample_metrics(traces, seconds)
        workers = available_workers(None)
        forward_us = models["models.forward_pair_us"]
        adds = [
            (s["end"] - s["start"]) * 1e6 for s in tracer.named("index.add")
        ]
        queue = getattr(self.pipe, "queue", None)
        out = {
            "requests.queue_wait_p50_ms": percentile(state["waits"], 50) * 1e3,
            "requests.rejected": float(getattr(queue, "rejected", 0)),
            "requests.expired": float(getattr(queue, "expired", 0)),
            "scheduler.busy_ms": tracer.busy_seconds("scheduler.build_batches")
            * per_request,
            "scheduler.requests_per_query": state["requests"] / max(1, state["groups"]),
            "scheduler.queries_per_batch": state["groups"] / max(1, state["batches"]),
            "sketch.busy_ms": tracer.busy_seconds("sketch.retrieve_batch")
            * per_request,
            "sketch.candidate_share": state["retrieved"] / state["slots"]
            if state["slots"] else 0.0,
            "sketch.padded_share": state["padded"] / state["retrieved"]
            if state["retrieved"] else 0.0,
            "executor.busy_ms": executor_us / 1e3 / max(1, served),
            "executor.pairs_scored": scored / max(1, served),
            "executor.scored_share": scored / state["logical_pairs"]
            if state["logical_pairs"] else 0.0,
            "executor.us_per_scored_pair": executor_us / scored if scored else 0.0,
            "executor.dispatch_share": 1.0 - scored * forward_us / workers / executor_us
            if executor_us else 0.0,
            "executor.fallbacks": counter_total(registry, "search.serve.shm_failures")
            + counter_total(registry, "perf.parallel.worker_failures"),
            "index.add_us": percentile(adds, 50),
        }
        out.update(models)
        return out

    def sample_pairs(self) -> list:
        raise NotImplementedError


class ServeUnique(_Serving):
    name = "serve-unique"

    def __init__(self, seed: int, size: Size) -> None:
        super().__init__(seed, size)
        rng = np.random.default_rng([seed, 1])
        self.graphs = unique_graphs("AIDS", size.database, rng)
        self.signatures = {graph_signature(g) for g in self.graphs}
        self._queries: Dict[int, list] = {}

    def queries(self, op: int) -> list:
        """The op's distinct 2-edge perturbations of database members."""
        if op not in self._queries:
            rng = np.random.default_rng([self.seed, 2, op + 1])
            members = rng.choice(len(self.graphs), self.size.queries_per_op,
                                 replace=False)
            out, taken = [], set(self.signatures)
            for member in members:
                query = perturbed(self.graphs[member], rng, taken)
                while query is None:
                    member = int(rng.integers(len(self.graphs)))
                    query = perturbed(self.graphs[member], rng, taken)
                taken.add(graph_signature(query))
                out.append(query)
            self._queries[op] = out
        return self._queries[op]

    def warmup_queries(self) -> list:
        return self.queries(-1)

    def sample_pairs(self) -> list:
        rng = np.random.default_rng([self.seed, 4])
        queries = self.queries(0)
        return [
            GraphPair(self.graphs[int(rng.integers(len(self.graphs)))],
                      queries[i % len(queries)])
            for i in range(self.size.sample_pairs)
        ]

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Measurement:
        pipe = self.pipe
        result = Measurement()
        deadline = clock() + seconds
        op = 0
        while True:
            queries = self.queries(op)
            record = {"op": op, "queries": queries, "requests": [],
                      "responses": {}, "error": None}
            begin = clock()
            record["start"] = begin
            try:
                with tracer.span("op", op=op) if tracer else nullcontext():
                    for query in queries:
                        request = pipe.submit(query, TOP_K)
                        record["requests"].append(
                            (None if request is None else request.request_id,
                             clock()))
                    for response in pipe.run_until_drained():
                        record["responses"][response.request_id] = response
            except Exception as exc:  # counted failed, the run goes on
                record["error"] = repr(exc)
            record["end"] = clock()
            result.ops.append(record)
            op += 1
            if record["end"] >= deadline:
                break
        return result

    def check(self, measurement: Measurement) -> Checked:
        checked, brute = Checked(), self.brute_force()
        for record in measurement.ops:
            position = record["op"] % len(record["queries"])
            for slot, (request_id, _) in enumerate(record["requests"]):
                checked.attempted += 1
                response = record["responses"].get(request_id)
                if record["error"] or response is None or not response.ok:
                    checked.failed += 1
                    continue
                if slot != position:
                    continue
                query = record["queries"][slot]
                scores = brute.scores(("unique", record["op"], slot), query,
                                      self.graphs)
                expected = verifier.brute_ranking(scores, TOP_K)
                served = verifier.as_ranking(response.results)
                checked.recalls.append(verifier.recall(served, expected))
                if not verifier.check_exact(served, expected):
                    checked.failed += 1
                    checked.notes.append(f"op {record['op']}: ranking differs")
        return checked

    def end_to_end(self, measurement: Measurement, checked: Checked) -> Dict[str, float]:
        rates, latencies = [], []
        for record in measurement.ops:
            if record["error"]:
                continue
            rates.append(len(record["queries"]) * len(self.graphs)
                         / (record["end"] - record["start"]))
            latencies.extend(record["end"] - at for _, at in record["requests"])
        return {
            "pairs_per_s": statistics.median(rates) if rates else 0.0,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "recall_at_5": statistics.fmean(checked.recalls) if checked.recalls else 0.0,
            "_samples": len(latencies),
        }

    def per_op_cost(self, measurement: Measurement) -> float:
        return statistics.median(
            r["end"] - r["start"] for r in measurement.ops if not r["error"]
        )

    def served(self, measurement: Measurement) -> int:
        return sum(len(r["responses"]) for r in measurement.ops)

    def generator_lag(self, measurement: Measurement) -> List[float]:
        ops = measurement.ops
        return [b["start"] - a["end"] for a, b in zip(ops, ops[1:])]

    def properties(self, measurement: Measurement) -> Dict[str, float]:
        seen, repeats, members, total = set(), 0, 0, 0
        for record in measurement.ops:
            for query in record["queries"]:
                key = graph_signature(query)
                repeats += key in seen
                members += key in self.signatures
                seen.add(key)
                total += 1
        return {
            "workload.request_repeat_share": repeats / max(1, total),
            "workload.clone_share": 1.0 - len(self.signatures) / len(self.graphs),
            "workload.member_query_share": members / max(1, total),
            "workload.schedule_reuse_share": 0.0,
        }


class ServeHot(_Serving):
    name = "serve-hot"
    retrieval = "sketch"

    def __init__(self, seed: int, size: Size) -> None:
        super().__init__(seed, size)
        rng = np.random.default_rng([seed, 1])
        unique = unique_graphs("AIDS", size.hot_unique, rng)
        copies = size.database // size.hot_unique
        entries = [g.copy() for g in unique for _ in range(copies)]
        order = rng.permutation(len(entries))
        self.graphs = [entries[i] for i in order]
        self.signatures = {graph_signature(g) for g in self.graphs}
        # Half the pool repeats a member byte for byte; the other half
        # perturbs two edges of the remaining unique graphs.
        picks = rng.permutation(size.hot_unique)
        half = size.hot_pool // 2
        pool = [unique[j].copy() for j in picks[:half]]
        taken = set(self.signatures)
        for j in picks[half:]:
            if len(pool) == size.hot_pool:
                break
            query = perturbed(unique[j], rng, taken)
            if query is not None:
                taken.add(graph_signature(query))
                pool.append(query)
        if len(pool) < size.hot_pool:
            raise RuntimeError("too few graphs could be perturbed for the pool")
        self.pool = pool
        ranks = rng.permutation(len(pool)) + 1
        weights = 1.0 / ranks.astype(float) ** 1.1
        self.weights = weights / weights.sum()
        self.member = [graph_signature(q) in self.signatures for q in pool]

    def warmup_queries(self) -> list:
        return list(self.pool[: self.size.queries_per_op])

    def schedule(self, seconds: float):
        """Due times, query ids and appended graphs for a run length.

        The due times are one Poisson realization (``count`` arrivals
        placed uniformly), the same for every seed: the seed decides
        what arrives, not when, because burst patterns that change with
        the seed would dominate the p90.
        """
        count = max(1, int(round(self.size.hot_rate * seconds)))
        arrivals = np.random.default_rng([ARRIVAL_SEED, int(round(seconds * 1000))])
        due = np.sort(arrivals.uniform(0.0, seconds, count))
        rng = np.random.default_rng([self.seed, 3, int(round(seconds * 1000))])
        qids = rng.choice(len(self.pool), count, p=self.weights)
        appends = [generate_graph("AIDS", rng)
                   for _ in range(count // self.size.add_every)]
        return due, qids, appends

    def sample_pairs(self) -> list:
        rng = np.random.default_rng([self.seed, 4])
        return [
            GraphPair(self.graphs[int(rng.integers(len(self.graphs)))],
                      self.pool[int(rng.choice(len(self.pool), p=self.weights))])
            for _ in range(self.size.sample_pairs)
        ]

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Measurement:
        pipe, index = self.pipe, self.index
        due, qids, appends = self.schedule(seconds)
        count = len(due)
        submitted = [math.nan] * count
        done = [math.nan] * count
        by_request: Dict[int, int] = {}
        answers: Dict[int, tuple] = {}
        result = Measurement(extra={"due": due, "qids": qids,
                                    "appends": appends})
        errors: List[str] = []
        start = clock() + 0.002
        nxt = added = 0
        next_round = start + ROUND_INTERVAL
        while nxt < count or len(pipe.queue):
            now = clock()
            while nxt < count and start + due[nxt] <= now:
                request = pipe.submit(self.pool[qids[nxt]], TOP_K)
                submitted[nxt] = clock()
                if request is not None:
                    by_request[request.request_id] = nxt
                nxt += 1
                if nxt % self.size.add_every == 0 and added < len(appends):
                    index.add(appends[added])
                    added += 1
                now = clock()
            if now >= next_round:
                next_round += ROUND_INTERVAL
                if len(pipe.queue):
                    size = len(index)
                    begin = clock()
                    try:
                        with tracer.span("op", database=size) if tracer else nullcontext():
                            responses = pipe.run_round()
                    except Exception as exc:  # counted failed, the run goes on
                        errors.append(repr(exc))
                        responses = []
                    end = clock()
                    # After an overrun the next round starts at once.
                    next_round = max(next_round, end)
                    result.ops.append({"start": begin, "end": end,
                                       "requests": len(responses)})
                    for response in responses:
                        position = by_request[response.request_id]
                        done[position] = end
                        answers[position] = (response, size)
                continue
            wake = next_round if nxt >= count else min(next_round, start + due[nxt])
            time.sleep(max(0.0, wake - clock()))
        result.extra.update(start=start, submitted=submitted, done=done,
                            answers=answers, errors=errors)
        return result

    def check(self, measurement: Measurement) -> Checked:
        checked, brute = Checked(), self.brute_force()
        extra = measurement.extra
        prefix_source = self.graphs + list(extra["appends"])
        by_query: Dict[int, List[float]] = {}
        for position, qid in enumerate(extra["qids"]):
            checked.attempted += 1
            answer = extra["answers"].get(position)
            if answer is None or not answer[0].ok:
                checked.failed += 1
                continue
            response, size = answer
            scores = brute.scores(("hot", int(qid)), self.pool[qid],
                                  prefix_source[:size])
            served = verifier.as_ranking(response.results)
            by_query.setdefault(int(qid), []).append(
                verifier.recall(served, verifier.brute_ranking(scores, TOP_K))
            )
            if not verifier.check_scores(served, scores, TOP_K):
                checked.failed += 1
                checked.notes.append(f"request {position}: score differs")
        # One figure per distinct query, so the query a seed makes
        # hottest does not decide the workload's recall.
        checked.recalls = [statistics.fmean(r) for r in by_query.values()]
        return checked

    def end_to_end(self, measurement: Measurement, checked: Checked) -> Dict[str, float]:
        extra = measurement.extra
        start = extra["start"]
        latencies = [
            done - (start + due)
            for done, due in zip(extra["done"], extra["due"])
            if not math.isnan(done)
        ]
        # Over serving busy time, not wall time: at a fixed offered load
        # the wall-time rate is the arrival rate until serving saturates.
        pairs = sum(size for _, size in extra["answers"].values())
        busy = sum(op["end"] - op["start"] for op in measurement.ops)
        finished = max((d for d in extra["done"] if not math.isnan(d)),
                       default=start)
        return {
            "pairs_per_s": pairs / busy if busy else 0.0,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "recall_at_5": statistics.fmean(checked.recalls) if checked.recalls else 0.0,
            "_samples": len(latencies),
            "_busy_share": busy / (finished - start) if finished > start else 0.0,
        }

    def served(self, measurement: Measurement) -> int:
        return len(measurement.extra["answers"])

    def per_op_cost(self, measurement: Measurement) -> float:
        """Serving busy time per answered request."""
        busy = sum(op["end"] - op["start"] for op in measurement.ops)
        return busy / max(1, sum(op["requests"] for op in measurement.ops))

    def generator_lag(self, measurement: Measurement) -> List[float]:
        extra = measurement.extra
        return [
            at - (extra["start"] + due)
            for at, due in zip(extra["submitted"], extra["due"])
            if not math.isnan(at)
        ]

    def properties(self, measurement: Measurement) -> Dict[str, float]:
        qids = [int(q) for q in measurement.extra["qids"]]
        seen, repeats = set(), 0
        for qid in qids:
            repeats += qid in seen
            seen.add(qid)
        return {
            "workload.request_repeat_share": repeats / max(1, len(qids)),
            "workload.clone_share": 1.0 - len(self.signatures) / len(self.graphs),
            "workload.member_query_share": sum(self.member[q] for q in qids)
            / max(1, len(qids)),
            "workload.schedule_reuse_share": 0.0,
        }


# -- simulation sweep -----------------------------------------------------
def schedule_key(simulator):
    """What decides whether a design point can reuse built schedules.

    Window schedules depend on the CGC scheme, the EMF-active rows and
    the buffer capacity; analytic software models build none (None).
    """
    config = getattr(simulator, "config", None)
    if config is None:
        return None
    return (
        getattr(config, "cgc_enabled", None),
        getattr(config, "emf_enabled", None),
        getattr(config, "input_buffer_bytes", None),
    )


def schedule_kinds(specs) -> List[str]:
    """How each design point of the sweep uses window schedules.

    ``analytic`` builds none. Buffer and bandwidth variants (``@``
    specs) are ``cold`` on the first use of their schedule key in a pass
    and ``warm`` when an earlier op built it. The fixed ablation points
    are ``other``.
    """
    seen, kinds = set(), []
    for spec in specs:
        key = schedule_key(REGISTRY.build(spec))
        if key is None:
            kinds.append("analytic")
        elif "@" not in spec:
            kinds.append("other")
        else:
            kinds.append("warm" if key in seen else "cold")
            seen.add(key)
    return kinds


class SimSweep:
    name = "sim-sweep"

    def __init__(self, seed: int, size: Size) -> None:
        self.seed = seed
        self.size = size
        self.pairs = {
            dataset: load_dataset(dataset, seed=seed, num_pairs=count)
            for dataset, count in size.sim_sets
        }
        # The profiled traces, pickled: fresh copies for every pass, and
        # no second live object graph for the collector to scan.
        self.traces_blob = b""
        self.num_pairs = 0
        self.profile_seconds: List[float] = []
        self.kinds = schedule_kinds(SIM_SPECS)
        self.reference: Optional[Dict[str, list]] = None
        self.reference_kind = "none"

    def fingerprint(self) -> dict:
        return {
            "models": list(SIM_MODELS),
            "sets": [list(item) for item in self.size.sim_sets],
            "batch": self.size.sim_batch,
            "specs": list(SIM_SPECS),
        }

    def setup(self, tracer: Optional[Tracer] = None) -> float:
        """Build both models and profile every set: the traces."""
        started = clock()
        traces, profiling = [], 0.0
        self.models = {}
        for model_name in SIM_MODELS:
            for dataset, pairs in self.pairs.items():
                model = self.models.get((model_name, dataset))
                if model is None:
                    model = build_model(model_name,
                                        input_dim=pairs[0].target.feature_dim,
                                        seed=0)
                    self.models[(model_name, dataset)] = model
                began = clock()
                traces.extend(profile_batches(model, pairs,
                                              batch_size=self.size.sim_batch))
                profiling += clock() - began
        elapsed = clock() - started
        self.traces_blob = pickle.dumps(traces, protocol=pickle.HIGHEST_PROTOCOL)
        self.num_pairs = sum(len(batch.pair_traces) for batch in traces)
        self.profile_seconds.append(profiling)
        return elapsed

    def fresh_traces(self) -> list:
        return pickle.loads(self.traces_blob)

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Measurement:
        result = Measurement()
        deadline = clock() + seconds
        sweep = 0
        while True:
            traces = self.fresh_traces()
            # Collect the copy's garbage now, not inside a timed op.
            gc.collect()
            for spec, kind in zip(SIM_SPECS, self.kinds):
                record = {"sweep": sweep, "spec": spec, "kind": kind,
                          "record": None, "error": None}
                record["start"] = clock()
                try:
                    with tracer.span("op", spec=spec, kind=kind) if tracer else nullcontext():
                        platform = simulate_traces(traces, [spec])[spec]
                    record["record"] = verifier.sim_record(platform)
                except Exception as exc:  # counted failed, the run goes on
                    record["error"] = repr(exc)
                record["end"] = clock()
                result.ops.append(record)
            sweep += 1
            if clock() >= deadline:
                break
        return result

    def load_reference(self) -> None:
        """Goldens for this seed, else a reference computed now.

        The in-run reference simulates every design point on fresh
        traces with the simulator's per-pair ``serial`` backend, the
        differential reference of the batched engine.
        """
        if self.reference is not None:
            return
        if self.size is FULL:
            golden = verifier.load_goldens(self.fingerprint(), self.seed)
            if golden is not None:
                self.reference, self.reference_kind = golden, "golden"
                return
        traces = self.fresh_traces()
        reference = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for spec in SIM_SPECS:
                platform = simulate_traces(traces, [spec], backend="serial")[spec]
                reference[spec] = verifier.sim_record(platform)
        self.reference, self.reference_kind = reference, "serial-backend"

    def check(self, measurement: Measurement) -> Checked:
        self.load_reference()
        checked = Checked()
        sweeps: Dict[int, Dict[str, list]] = {}
        for record in measurement.ops:
            checked.attempted += 1
            golden = self.reference.get(record["spec"])
            if record["error"] or golden is None or not verifier.check_sim(
                record["record"], golden
            ):
                checked.failed += 1
                checked.notes.append(f"{record['spec']}: totals differ")
                continue
            sweeps.setdefault(record["sweep"], {})[record["spec"]] = record["record"]
        expected = verifier.fastest(self.reference)
        for records in sweeps.values():
            served = [(i, 0.0) for i in verifier.fastest(records)]
            checked.recalls.append(
                verifier.recall(served, [(i, 0.0) for i in expected])
            )
        return checked

    def sweep_seconds(self, measurement: Measurement) -> List[float]:
        totals: Dict[int, float] = {}
        for record in measurement.ops:
            totals[record["sweep"]] = (totals.get(record["sweep"], 0.0)
                                       + record["end"] - record["start"])
        return list(totals.values())

    def end_to_end(self, measurement: Measurement, checked: Checked) -> Dict[str, float]:
        # A pass's time is built from each design point's quantile over
        # the run's passes, summed: a 30 s run holds only 5 to 8 passes,
        # and one slow pass on a noisy host moves no design point's median.
        per_spec: Dict[str, List[float]] = {}
        for record in measurement.ops:
            per_spec.setdefault(record["spec"], []).append(
                record["end"] - record["start"])
        typical_sweep = sum(statistics.median(times) for times in per_spec.values())
        slow_sweep = sum(percentile(times, 90) for times in per_spec.values())
        return {
            "pairs_per_s": self.num_pairs * len(per_spec) / typical_sweep,
            "latency_p50_ms": typical_sweep * 1e3,
            "latency_p90_ms": slow_sweep * 1e3,
            "recall_at_5": statistics.fmean(checked.recalls) if checked.recalls else 0.0,
            "_samples": len(self.sweep_seconds(measurement)),
        }

    def per_op_cost(self, measurement: Measurement) -> float:
        return statistics.median(self.sweep_seconds(measurement))

    def served(self, measurement: Measurement) -> int:
        return len(measurement.ops)

    def generator_lag(self, measurement: Measurement) -> List[float]:
        ops = measurement.ops
        return [b["start"] - a["end"] for a, b in zip(ops, ops[1:])
                if a["sweep"] == b["sweep"]]

    def properties(self, measurement: Measurement) -> Dict[str, float]:
        built = [kind for kind in self.kinds if kind in ("cold", "warm")]
        return {
            "workload.request_repeat_share": 0.0,
            "workload.clone_share": 0.0,
            "workload.member_query_share": 0.0,
            "workload.schedule_reuse_share": built.count("warm") / max(1, len(built)),
        }

    # -- traced run -------------------------------------------------------
    def install(self, tracer: Tracer, state: dict) -> None:
        """Spans on platform builds and each simulator's batches call."""
        kinds = dict(zip(SIM_SPECS, self.kinds))

        def after_build(simulator, spec, *args, **kwargs):
            kind = kinds.get(spec, "other")
            tracer.wrap(simulator, "simulate_batches", "sim.simulate_batches",
                        before=lambda *a, **k: {"kind": kind})
            return {"spec": spec}

        tracer.wrap(REGISTRY, "build", "platforms.build", after=after_build)

    def layer_metrics(self, tracer: Tracer, state: dict, registry,
                      served: int) -> Dict[str, float]:
        own = tracer.self_seconds()
        by_kind: Dict[str, List[float]] = {"cold": [], "warm": [], "analytic": [],
                                           "other": []}
        for record in tracer.named("sim.simulate_batches"):
            by_kind.setdefault(record["attrs"].get("kind"), []).append(
                own[record["id"]] * 1e3)
        builds = [(r["end"] - r["start"]) * 1e6 for r in tracer.named("platforms.build")]
        ops = tracer.named("op")
        op_seconds = sum(r["end"] - r["start"] for r in ops)
        traces, seconds = [], 0.0
        for model_name in SIM_MODELS:
            for dataset, pairs in self.pairs.items():
                model = self.models[(model_name, dataset)]
                got, took = time_forward(model, pairs[:2])
                traces.extend(got)
                seconds += took
        reference = self.reference or {}
        out = {
            "trace.profile_ms": statistics.median(self.profile_seconds) * 1e3,
            "platforms.build_us": percentile(builds, 50),
            "sim.cold_schedule_ms": statistics.fmean(by_kind["cold"]) if by_kind["cold"] else 0.0,
            "sim.warm_schedule_ms": statistics.fmean(by_kind["warm"]) if by_kind["warm"] else 0.0,
            "sim.analytic_ms": statistics.fmean(by_kind["analytic"]) if by_kind["analytic"] else 0.0,
            "sim.host_us_per_sim_pair": op_seconds / max(1, len(ops) * self.num_pairs) * 1e6,
            "sim.cycles": sum(reference[s][0] for s in SIM_SPECS if s in reference),
            "sim.dram_bytes": sum(reference[s][1] for s in SIM_SPECS if s in reference),
        }
        out.update(model_sample_metrics(traces, seconds))
        return out


WORKLOADS = {cls.name: cls for cls in (ServeUnique, ServeHot, SimSweep)}

# Every end-to-end and per-layer metric with its unit; BENCHMARK.json
# lists the same names.
END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "recall_at_5": "share",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "requests.queue_wait_p50_ms": "ms",
    "requests.rejected": "count",
    "requests.expired": "count",
    "scheduler.busy_ms": "ms",
    "scheduler.requests_per_query": "ratio",
    "scheduler.queries_per_batch": "count",
    "sketch.busy_ms": "ms",
    "sketch.candidate_share": "share",
    "sketch.padded_share": "share",
    "executor.busy_ms": "ms",
    "executor.pairs_scored": "pairs/request",
    "executor.scored_share": "share",
    "executor.us_per_scored_pair": "us",
    "executor.dispatch_share": "share",
    "executor.fallbacks": "count",
    "index.add_us": "us",
    "models.forward_pair_us": "us",
    "models.flops_per_pair": "flop",
    **{f"models.flops_per_pair.{phase}": "flop" for phase in PHASES},
    "models.gflop_per_s": "GFLOP/s",
    "trace.profile_ms": "ms",
    "platforms.build_us": "us",
    "sim.cold_schedule_ms": "ms",
    "sim.warm_schedule_ms": "ms",
    "sim.analytic_ms": "ms",
    "sim.host_us_per_sim_pair": "us",
    "sim.cycles": "cycles",
    "sim.dram_bytes": "bytes",
    "workload.request_repeat_share": "share",
    "workload.clone_share": "share",
    "workload.member_query_share": "share",
    **{f"workload.dup_row_share.l{i}": "share" for i in range(GMN_LAYERS)},
    "workload.schedule_reuse_share": "share",
    "bench.generator_lag_p90_ms": "ms",
    "bench.trace_overhead_share": "share",
}


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    details: Dict[str, object]
    tracer: Optional[Tracer] = None


def run(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> Outcome:
    """Set up, measure and check one workload."""
    workload = WORKLOADS[name](seed, size)
    setups = [workload.setup() for _ in range(SETUP_REPEATS)]
    details: Dict[str, object] = {"setup_s": setups}
    if not trace:
        measurement = workload.measure(seconds)
        # Before the checks, whose brute force and references are the
        # benchmark's memory, not the program's.
        peak = peak_rss_mb()
        checked = workload.check(measurement)
        e2e = workload.end_to_end(measurement, checked)
        details.update({key[1:]: e2e.pop(key) for key in list(e2e)
                        if key.startswith("_")})
        metrics = {"setup_s": statistics.median(setups), **e2e,
                   "peak_rss_mb": peak}
        details["properties"] = workload.properties(measurement)
        return _outcome(workload, checked, metrics, details, None)

    # The plain half is the reference the traced half's cost is
    # compared against; a fresh setup keeps the two on equal inputs.
    half = max(seconds / 2.0, 0.5)
    plain = workload.measure(half)
    checked = workload.check(plain)
    tracer = Tracer()
    state: dict = {}
    workload.setup(tracer)
    workload.install(tracer, state)
    try:
        with metrics_enabled() as registry:
            traced = workload.measure(half, tracer)
    finally:
        tracer.restore()
    second = workload.check(traced)
    checked.attempted += second.attempted
    checked.failed += second.failed
    checked.notes.extend(second.notes)
    metrics = workload.layer_metrics(tracer, state, registry, workload.served(traced))
    metrics.update(workload.properties(traced))
    plain_cost = workload.per_op_cost(plain)
    traced_cost = workload.per_op_cost(traced)
    metrics["bench.generator_lag_p90_ms"] = percentile(
        workload.generator_lag(traced), 90) * 1e3
    metrics["bench.trace_overhead_share"] = (traced_cost - plain_cost) / traced_cost
    # A layer off this workload's path reads 0 (see README).
    for missing in PER_LAYER_UNITS:
        metrics.setdefault(missing, 0.0)
    details["absent_layers"] = tracer.absent
    return _outcome(workload, checked, metrics, details, tracer)


def _outcome(workload, checked: Checked, metrics, details, tracer) -> Outcome:
    details["notes"] = checked.notes[:20]
    if isinstance(workload, SimSweep):
        details["reference"] = workload.reference_kind
    return Outcome(checked.attempted, checked.failed, metrics, details, tracer)


def record_goldens(seeds) -> None:
    """Record simulated totals for ``seeds`` into ``goldens.json``."""
    goldens = {}
    fingerprint = None
    for seed in seeds:
        sweep = SimSweep(seed, FULL)
        sweep.setup()
        traces = sweep.fresh_traces()
        goldens[seed] = {
            spec: verifier.sim_record(simulate_traces(traces, [spec])[spec])
            for spec in SIM_SPECS
        }
        fingerprint = sweep.fingerprint()
    verifier.save_goldens(fingerprint, goldens)
