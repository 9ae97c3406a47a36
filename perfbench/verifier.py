"""Output checks, run outside every timed region.

Serving answers are checked against brute force: the public
``model.forward_pair`` over every graph of the database prefix a round
ran against, ranked by descending score with ties by ascending index.
Simulated cycle and DRAM-byte totals are checked against goldens
recorded for the seeds in ``goldens.json``; other seeds are checked
against a reference computed in the run (see ``workloads.SimSweep``).

Every check returns plain values, so a test can feed a perturbed answer
and see the operation counted as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graphs.pairs import GraphPair
from repro.search import graph_signature

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

Ranking = List[Tuple[int, float]]


def as_ranking(results) -> Ranking:
    """``SearchResult`` objects as ``(index, score)`` tuples."""
    return [(int(result.index), float(result.score)) for result in results]


def _order_key(index: int, score: float):
    # The serving order (repro.search.results): NaN last, then descending
    # score, ties by ascending database index.
    if math.isnan(score):
        return (1, 0.0, index)
    return (0, -score, index)


def brute_ranking(scores: Sequence[float], top_k: int) -> Ranking:
    """Top ``top_k`` of a full score vector under the serving order."""
    order = sorted(range(len(scores)), key=lambda i: _order_key(i, scores[i]))
    return [(i, float(scores[i])) for i in order[:top_k]]


class BruteForce:
    """Exact scores through ``model.forward_pair``, memoised.

    Scores are cached per (query key, database graph signature): a
    byte-identical database clone has a bit-identical score, so each
    distinct graph is scored once per query.
    """

    def __init__(self, model) -> None:
        self.model = model
        self._scores: Dict[Tuple[object, bytes], float] = {}
        self._graph_keys: Dict[int, bytes] = {}

    def _key(self, graph) -> bytes:
        key = self._graph_keys.get(id(graph))
        if key is None:
            key = graph_signature(graph)
            self._graph_keys[id(graph)] = key
        return key

    def scores(self, query_key, query, graphs: Sequence) -> List[float]:
        out = []
        for graph in graphs:
            cache_key = (query_key, self._key(graph))
            score = self._scores.get(cache_key)
            if score is None:
                trace = self.model.forward_pair(GraphPair(graph, query))
                score = float(trace.score)
                self._scores[cache_key] = score
            out.append(score)
        return out


def check_exact(served: Ranking, expected: Ranking) -> bool:
    """Bit-identical ranking: same indices, same scores, same order."""
    return len(served) == len(expected) and all(
        a[0] == b[0] and _same_float(a[1], b[1])
        for a, b in zip(served, expected)
    )


def check_scores(served: Ranking, scores: Sequence[float], top_k: int) -> bool:
    """Each served score equals brute force, in serving order.

    For retrieval that ranks a candidate subset: the served list must be
    non-empty, at most ``top_k`` long, name distinct in-range indices,
    carry each index's exact brute-force score, and be sorted under the
    serving order.
    """
    if not served or len(served) > top_k:
        return False
    indices = [index for index, _ in served]
    if len(set(indices)) != len(indices):
        return False
    for index, score in served:
        if not 0 <= index < len(scores) or not _same_float(score, scores[index]):
            return False
    keys = [_order_key(index, score) for index, score in served]
    return keys == sorted(keys)


def recall(served: Ranking, expected: Ranking) -> float:
    """Share of the brute-force top-k present in the served top-k."""
    if not expected:
        return 1.0
    served_ids = {index for index, _ in served}
    return sum(index in served_ids for index, _ in expected) / len(expected)


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


# -- simulation goldens -------------------------------------------------
def load_goldens(fingerprint: dict, seed: int) -> Optional[Dict[str, list]]:
    """Recorded ``{spec: [cycles, dram_bytes, latency_per_pair]}``.

    None when no golden exists for this sweep definition and seed.
    """
    try:
        payload = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if payload.get("fingerprint") != fingerprint:
        return None
    return payload.get("seeds", {}).get(str(seed))


def save_goldens(fingerprint: dict, goldens: Dict[int, Dict[str, list]]) -> None:
    payload = {
        "fingerprint": fingerprint,
        "seeds": {str(seed): goldens[seed] for seed in sorted(goldens)},
    }
    GOLDENS_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def sim_record(result) -> list:
    """The checked figures of one ``PlatformResult``."""
    return [
        float(result.cycles),
        float(result.dram_bytes),
        float(result.latency_per_pair),
    ]


def check_sim(record: Sequence[float], golden: Sequence[float]) -> bool:
    """Cycle and DRAM-byte totals equal the golden exactly."""
    return _same_float(record[0], golden[0]) and _same_float(record[1], golden[1])


def fastest(records: Dict[str, Sequence[float]]) -> List[str]:
    """The 5 design points with the lowest latency per pair."""
    return sorted(records, key=lambda spec: (records[spec][2], spec))[:5]
