"""Array-form window-schedule summaries for the batched simulator.

The cycle simulators never look at *which* nodes a window holds — only
at per-step occupancy, miss, matching, and edge counts plus a few
totals. :class:`ScheduleSummary` captures exactly that as flat int64
arrays, which is what the batched engine stacks across pairs and what
the trace-cache sidecar persists so warm runs skip scheduling entirely.

Two ways to obtain one:

- :meth:`ScheduleSummary.from_schedule` converts a full
  :class:`~repro.cgc.window.WindowSchedule` (the serial reference).
- :func:`schedule_summary_for` builds one directly through the fast
  builders below, which replicate ``single_window_schedule`` and
  ``coordinated_window_schedule`` *exactly* — same windows, same order,
  same tie-breaks — without materializing ``WindowStep`` objects.

Exactness notes (the serial schedulers are the specification, bit for
bit, and ``repro validate --only sim.batched_vs_serial`` enforces it):

- The serial ``_EdgeTracker`` iterates ``remaining`` (a set of edge
  tuples) whose order CPython fixes at construction: deletions leave
  dummy slots and never reorder survivors, and no edges are ever added
  after ``set(edges)``. The fast tracker therefore canonicalizes edges
  as ``list(set(edges))`` once per pair — the iteration order of
  ``remaining`` at *any* later point is this list filtered to
  still-alive edges.
- The cleanup seed ``max({u for edge in remaining for u in edge},
  key=node_remains)`` tie-breaks on int-set iteration order. When one
  node alone holds the maximum remaining degree it is the seed, whatever
  the order. On a tie the fast path builds a real set from the same
  interleaved endpoint sequence (same insertion order, so the same
  CPython table layout) and takes ``np.argmax`` — first maximum — over
  the set's own iteration order, matching ``max`` exactly.
- The cleanup sweep is memoized per pair. Its rounds depend only on the
  alive-edge mask at cleanup start (the remaining degrees follow from
  it) and on ``capacity``, and the capacity acts only when a window
  reaches it. A sweep is therefore stored under its start mask only if
  every window stayed below its capacity, and it is replayed only at a
  capacity above its largest window, where the same scans run to the
  same ends. Replay appends the rounds through the step recorder, so
  the first round's misses still count against the last sweep window.
- ``remaining_degree`` counts every edge *occurrence* (duplicates
  included), while processing only retires canonical edges; the fast
  tracker replicates this asymmetry via one ``np.bincount`` over the
  raw endpoint list.
- The coordinated scheme's jump ``min(unmatched, key=manhattan)``
  iterates a set built by one comprehension and shrunk only by
  ``discard`` — replicated verbatim, so ties resolve identically.

AOE decisions go through the real
:func:`~repro.cgc.aoe.approximate_outlier_estimation`, so its
``cgc.aoe.*`` metrics are emitted exactly as the serial builder would.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from ..graphs.pairs import GraphPair
from .aoe import SLIDE_COLUMN_WISE, approximate_outlier_estimation
from .window import (
    WindowSchedule,
    _active_sets,
    _chunks,
    _pair_edges,
    _validate_capacity,
)

__all__ = [
    "ScheduleSummary",
    "schedule_summary_for",
    "summary_key",
    "summarize_single",
    "summarize_coordinated",
    "memoized_summaries",
]


class ScheduleSummary:
    """Per-step counts of one window schedule, in array form."""

    __slots__ = (
        "scheme",
        "capacity",
        "occupancy",
        "misses",
        "matchings",
        "edges",
        "is_cleanup",
    )

    def __init__(
        self,
        scheme: str,
        capacity: int,
        occupancy: np.ndarray,
        misses: np.ndarray,
        matchings: np.ndarray,
        edges: np.ndarray,
        is_cleanup: np.ndarray,
    ) -> None:
        self.scheme = scheme
        self.capacity = capacity
        self.occupancy = occupancy
        self.misses = misses
        self.matchings = matchings
        self.edges = edges
        self.is_cleanup = is_cleanup

    # ------------------------------------------------------------------
    @classmethod
    def from_schedule(cls, schedule: WindowSchedule) -> "ScheduleSummary":
        steps = schedule.steps
        return cls(
            schedule.scheme,
            schedule.capacity,
            np.array([len(s.input_nodes) for s in steps], dtype=np.int64),
            np.array([s.misses for s in steps], dtype=np.int64),
            np.array([s.num_matchings for s in steps], dtype=np.int64),
            np.array([s.num_edges for s in steps], dtype=np.int64),
            np.array(
                [s.kind == "cleanup" for s in steps], dtype=np.int64
            ),
        )

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return int(self.occupancy.shape[0])

    @property
    def total_misses(self) -> int:
        return int(self.misses.sum())

    @property
    def total_matchings(self) -> int:
        return int(self.matchings.sum())

    @property
    def total_edges(self) -> int:
        return int(self.edges.sum())

    @property
    def total_occupancy(self) -> int:
        """Sum of window sizes — the thrashing-mode feature-load count."""
        return int(self.occupancy.sum())

    @property
    def cleanup_steps(self) -> int:
        return int(self.is_cleanup.sum())

    @property
    def cleanup_misses(self) -> int:
        """Nodes re-fetched by cleanup windows (``cgc.revisits.nodes``)."""
        return int(self.misses[self.is_cleanup != 0].sum())

    # ------------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """One ``(5, num_steps)`` int64 array (sidecar serialization)."""
        return np.stack(
            [self.occupancy, self.misses, self.matchings, self.edges, self.is_cleanup]
        )

    @classmethod
    def from_array(
        cls, scheme: str, capacity: int, packed: np.ndarray
    ) -> "ScheduleSummary":
        packed = np.ascontiguousarray(packed, dtype=np.int64)
        if packed.ndim != 2 or packed.shape[0] != 5:
            raise ValueError(
                f"expected a (5, steps) summary array, got {packed.shape}"
            )
        return cls(scheme, capacity, *[packed[i] for i in range(5)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleSummary):
            return NotImplemented
        return (
            self.scheme == other.scheme
            and self.capacity == other.capacity
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "occupancy",
                    "misses",
                    "matchings",
                    "edges",
                    "is_cleanup",
                )
            )
        )

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduleSummary({self.scheme!r}, steps={self.num_steps}, "
            f"misses={self.total_misses})"
        )


# ----------------------------------------------------------------------
# Fast exact builders
# ----------------------------------------------------------------------
class _PairEntry:
    """Everything memoized for one pair, in ``_SUMMARY_MEMO``.

    ``summaries`` maps ``(scheme, capacity, actives, actives)`` to built
    summaries. The topology arrays, filled by the first fast build, hold
    the canonical edge order (see module docstring) as ``src``/``dst``,
    its lexicographic order ``sorted_edges`` (= ``sorted(remaining)``)
    and the initial remaining degrees. ``cleanups`` maps a packed
    alive-edge mask at cleanup start to the :class:`_CleanupRun` it
    produced. Numpy arrays only, and no reference back to the pair, so
    the weak key can drop it.
    """

    __slots__ = ("summaries", "cleanups", "src", "dst", "sorted_edges", "remains")

    def __init__(self) -> None:
        self.summaries: Dict[Tuple, ScheduleSummary] = {}
        self.cleanups: Dict[bytes, "_CleanupRun"] = {}
        self.src: Optional[np.ndarray] = None

    def load_topology(self, pair: GraphPair) -> None:
        edges = _pair_edges(pair)
        canonical = list(set(edges))
        self.src = np.array([edge[0] for edge in canonical], dtype=np.int64)
        self.dst = np.array([edge[1] for edge in canonical], dtype=np.int64)
        self.sorted_edges = np.lexsort((self.dst, self.src))
        if edges:
            endpoints = np.array(edges, dtype=np.int64).ravel()
            self.remains = np.bincount(endpoints, minlength=pair.total_nodes)
        else:
            self.remains = np.zeros(pair.total_nodes, dtype=np.int64)


def _pair_entry(pair: GraphPair) -> _PairEntry:
    entry = _SUMMARY_MEMO.get(pair)
    if entry is None:
        entry = _PairEntry()
        _SUMMARY_MEMO[pair] = entry
    return entry


class _ArrayTracker:
    """Array twin of :class:`~repro.cgc.window._EdgeTracker`.

    Aliveness and remaining degrees live in numpy arrays over the pair
    entry's canonical edges, and co-residency processing is one boolean
    pass over them per window instead of per-node set algebra.
    """

    __slots__ = ("entry", "alive", "remains", "_mark", "_gen")

    def __init__(self, pair: GraphPair) -> None:
        self.entry = entry = _pair_entry(pair)
        if entry.src is None:
            entry.load_topology(pair)
        self.alive = np.ones(entry.src.shape[0], dtype=bool)
        self.remains = entry.remains.copy()
        self._mark = np.zeros(entry.remains.shape[0], dtype=np.int64)
        self._gen = 0

    def process(self, window: np.ndarray) -> int:
        """Retire every alive edge with both endpoints in ``window``."""
        if not self.alive.any():
            return 0
        src, dst = self.entry.src, self.entry.dst
        self._gen += 1
        self._mark[window] = self._gen
        done = (
            self.alive
            & (self._mark[src] == self._gen)
            & (self._mark[dst] == self._gen)
        )
        count = int(np.count_nonzero(done))
        if count:
            self.alive[done] = False
            self.remains -= np.bincount(
                np.concatenate((src[done], dst[done])),
                minlength=self.remains.shape[0],
            )
        return count


class _StepRecorder:
    """Accumulates per-step counts with serial miss accounting.

    A step's misses are its nodes absent from the *previous recorded*
    step's window (``WindowSchedule.__init__`` semantics) — windows the
    single scheme drops for processing nothing never enter the chain.
    """

    __slots__ = ("_last", "_step", "occ", "miss", "match", "edges", "cleanup")

    def __init__(self, num_nodes: int) -> None:
        self._last = np.full(num_nodes, -1, dtype=np.int64)
        self._step = 0
        self.occ: List[int] = []
        self.miss: List[int] = []
        self.match: List[int] = []
        self.edges: List[int] = []
        self.cleanup: List[int] = []

    def append(
        self, window: np.ndarray, matchings: int, edges: int, cleanup: bool
    ) -> None:
        self._step += 1
        misses = int(np.count_nonzero(self._last[window] != self._step - 1))
        self._last[window] = self._step
        self.occ.append(int(window.shape[0]))
        self.miss.append(misses)
        self.match.append(matchings)
        self.edges.append(edges)
        self.cleanup.append(1 if cleanup else 0)

    def build(self, scheme: str, capacity: int) -> ScheduleSummary:
        return ScheduleSummary(
            scheme,
            capacity,
            np.array(self.occ, dtype=np.int64),
            np.array(self.miss, dtype=np.int64),
            np.array(self.match, dtype=np.int64),
            np.array(self.edges, dtype=np.int64),
            np.array(self.cleanup, dtype=np.int64),
        )


class _CleanupRun:
    """One cleanup sweep's windows with their processed-edge counts."""

    __slots__ = ("windows", "processed", "largest")

    def __init__(self, windows: List[np.ndarray], processed: List[int]) -> None:
        self.windows = windows
        self.processed = processed
        self.largest = max(window.shape[0] for window in windows)

    def fits(self, capacity: int) -> bool:
        """Whether the sweep at ``capacity`` yields the same rounds: no
        window reached this capacity, so its bound never cut a scan."""
        return capacity > self.largest

    def replay(self, recorder: _StepRecorder) -> None:
        for window, processed in zip(self.windows, self.processed):
            recorder.append(window, 0, processed, cleanup=True)


def _cleanup_rounds(
    tracker: _ArrayTracker, recorder: _StepRecorder, capacity: int
) -> None:
    """Replicates ``_EdgeTracker.cleanup_steps`` over the array state,
    memoized per pair by the alive mask at cleanup start (see the module
    docstring for when a stored sweep is replayed)."""
    alive = tracker.alive
    if not alive.any():
        return
    entry = tracker.entry
    key = np.packbits(alive).tobytes()
    run = entry.cleanups.get(key)
    if run is not None and run.fits(capacity):
        run.replay(recorder)
        alive[:] = False
        return

    src, dst, remains = entry.src, entry.dst, tracker.remains
    # Alive edges in sorted(remaining) order; each round keeps the
    # still-sorted alive rest.
    pending = entry.sorted_edges[alive[entry.sorted_edges]]
    windows: List[np.ndarray] = []
    counts: List[int] = []
    while pending.size:
        alive_index = np.flatnonzero(alive)
        # Endpoints in the serial seed set comprehension's order.
        endpoints = np.stack((src[alive_index], dst[alive_index]), axis=1).ravel()
        degrees = remains[endpoints]
        top = endpoints[degrees == degrees.max()]
        if (top == top[0]).all():
            seed = int(top[0])
        else:
            # Ties resolve in the int set's iteration order, which the
            # same insertion sequence reproduces.
            nodes = np.fromiter(set(endpoints.tolist()), dtype=np.int64)
            seed = int(nodes[np.argmax(remains[nodes])])
        chosen = {seed}
        for u, v in zip(src[pending].tolist(), dst[pending].tolist()):
            if u in chosen:
                if v in chosen:
                    continue
                chosen.add(v)
            elif v in chosen:
                chosen.add(u)
            else:
                continue
            if len(chosen) >= capacity:
                break
        window = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
        processed = tracker.process(window)
        if processed == 0:  # pragma: no cover - safety net
            raise RuntimeError("cleanup failed to make progress")
        recorder.append(window, 0, processed, cleanup=True)
        windows.append(window)
        counts.append(processed)
        pending = pending[alive[pending]]

    run = _CleanupRun(windows, counts)
    if run.fits(capacity):
        if len(entry.cleanups) >= _SUMMARY_MEMO_PER_PAIR:
            entry.cleanups.clear()
        entry.cleanups[key] = run


def summarize_single(
    pair: GraphPair,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
) -> ScheduleSummary:
    """Exact summary of ``single_window_schedule`` (Fig. 8a)."""
    capacity = _validate_capacity(capacity)
    half = max(1, capacity // 2)
    targets, queries = _active_sets(pair, active_targets, active_queries)
    tracker = _ArrayTracker(pair)
    recorder = _StepRecorder(pair.total_nodes)

    n_t = pair.target.num_nodes
    for node_list in (
        list(range(n_t)),
        [n_t + j for j in range(pair.query.num_nodes)],
    ):
        blocks = [
            np.asarray(block, dtype=np.int64)
            for block in _chunks(node_list, half)
        ]
        for i, dst_block in enumerate(blocks):
            for j, src_block in enumerate(blocks):
                window = (
                    dst_block
                    if i == j
                    else np.concatenate([dst_block, src_block])
                )
                processed = tracker.process(window)
                if processed:
                    recorder.append(window, 0, processed, cleanup=False)

    for t_block in _chunks(targets, half):
        t_array = np.asarray(t_block, dtype=np.int64)
        for q_block in _chunks(queries, half):
            window = np.concatenate(
                [t_array, np.asarray(q_block, dtype=np.int64)]
            )
            recorder.append(
                window, len(t_block) * len(q_block), 0, cleanup=False
            )

    _cleanup_rounds(tracker, recorder, capacity)
    return recorder.build("single", capacity)


def summarize_coordinated(
    pair: GraphPair,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
) -> ScheduleSummary:
    """Exact summary of ``coordinated_window_schedule`` (Fig. 12b)."""
    capacity = _validate_capacity(capacity)
    half = max(1, capacity // 2)
    targets, queries = _active_sets(pair, active_targets, active_queries)
    tracker = _ArrayTracker(pair)
    recorder = _StepRecorder(pair.total_nodes)
    if not targets or not queries:
        _cleanup_rounds(tracker, recorder, capacity)
        return recorder.build("coordinated", capacity)

    t_blocks = _chunks(targets, half)
    q_blocks = _chunks(queries, half)
    t_arrays = [np.asarray(block, dtype=np.int64) for block in t_blocks]
    q_arrays = [np.asarray(block, dtype=np.int64) for block in q_blocks]
    unmatched = {
        (ti, qi) for ti in range(len(t_blocks)) for qi in range(len(q_blocks))
    }
    ti, qi = 0, 0
    while True:
        window = np.concatenate([t_arrays[ti], q_arrays[qi]])
        edges = tracker.process(window)
        matchings = 0
        if (ti, qi) in unmatched:
            unmatched.discard((ti, qi))
            matchings = len(t_blocks[ti]) * len(q_blocks[qi])
        recorder.append(window, matchings, edges, cleanup=False)
        if not unmatched:
            break

        q_moves = sorted(
            (abs(qj - qi), qj) for (tj, qj) in unmatched if tj == ti
        )
        t_moves = sorted(
            (abs(tj - ti), tj) for (tj, qj) in unmatched if qj == qi
        )
        if q_moves and t_moves:
            direction = approximate_outlier_estimation(
                tracker.remains[t_arrays[ti]].tolist(),
                tracker.remains[q_arrays[qi]].tolist(),
            )
            if direction == SLIDE_COLUMN_WISE:
                qi = q_moves[0][1]
            else:
                ti = t_moves[0][1]
        elif q_moves:
            qi = q_moves[0][1]
        elif t_moves:
            ti = t_moves[0][1]
        else:
            ti, qi = min(
                unmatched, key=lambda cell: abs(cell[0] - ti) + abs(cell[1] - qi)
            )

    _cleanup_rounds(tracker, recorder, capacity)
    return recorder.build("coordinated", capacity)


_BUILDERS = {
    "single": summarize_single,
    "coordinated": summarize_coordinated,
}

# One _PairEntry per pair. Its summaries mirror engine._SCHEDULE_MEMO
# (same keying, capacity, and eviction): they depend only on (pair,
# scheme, capacity, active sets), never on the platform, so all
# platforms simulated over one trace share them. The cleanup memo is
# bounded and cleared the same way.
_SUMMARY_MEMO: "WeakKeyDictionary[GraphPair, _PairEntry]" = WeakKeyDictionary()
_SUMMARY_MEMO_PER_PAIR = 64


def summary_key(
    scheme: str,
    capacity: int,
    active_targets: Optional[Iterable[int]],
    active_queries: Optional[Iterable[int]],
) -> str:
    """Stable string key for one schedule (sidecar manifest key)."""

    def side(values: Optional[Iterable[int]]) -> str:
        if values is None:
            return "*"
        return ",".join(str(v) for v in values)

    return f"{scheme}|{capacity}|{side(active_targets)}|{side(active_queries)}"


def memoized_summaries(pair: GraphPair) -> Dict[Tuple, ScheduleSummary]:
    """Snapshot of one pair's summary memo.

    Used by the trace-cache sidecar to persist whatever schedules a
    simulation run actually built, keyed by the same
    ``(scheme, capacity, actives, actives)`` tuples the memo uses.
    """
    entry = _SUMMARY_MEMO.get(pair)
    return dict(entry.summaries) if entry is not None else {}


def schedule_summary_for(
    pair: GraphPair,
    scheme: str,
    capacity: int,
    active_targets: Optional[Iterable[int]] = None,
    active_queries: Optional[Iterable[int]] = None,
    store: Optional[Dict[str, ScheduleSummary]] = None,
) -> ScheduleSummary:
    """Memoized schedule summary for one (pair, layer) workload.

    Lookup order: per-pair memo, then the optional ``store`` (the
    trace-cache sidecar, keyed by :func:`summary_key`), then a fresh
    fast build. The caller decides whether to pass a store — metric
    runs must not, so schedule-construction counters (``cgc.aoe.*``)
    are emitted exactly as the serial path would.
    """
    if scheme not in _BUILDERS:
        raise KeyError(
            f"unknown batched scheme {scheme!r}; known: {sorted(_BUILDERS)}"
        )
    key: Tuple = (
        scheme,
        capacity,
        None if active_targets is None else tuple(active_targets),
        None if active_queries is None else tuple(active_queries),
    )
    per_pair = _pair_entry(pair).summaries
    summary = per_pair.get(key)
    if summary is None and store is not None:
        summary = store.get(summary_key(scheme, capacity, key[2], key[3]))
    if summary is None:
        summary = _BUILDERS[scheme](pair, capacity, key[2], key[3])
    if len(per_pair) >= _SUMMARY_MEMO_PER_PAIR:
        per_pair.clear()
    per_pair[key] = summary
    return summary
