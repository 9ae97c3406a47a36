"""Tests for the array-form schedule summaries behind the batched engine.

The fast builders must reproduce the serial schedulers *exactly* — the
serial path is the specification, and `ScheduleSummary.from_schedule`
of a real `WindowSchedule` is the ground truth they are compared to.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.cgc import summary as summary_mod
from repro.cgc.summary import (
    ScheduleSummary,
    memoized_summaries,
    schedule_summary_for,
    summarize_coordinated,
    summarize_single,
    summary_key,
)
from repro.cgc.window import (
    coordinated_window_schedule,
    single_window_schedule,
)
from repro.graphs import Graph, GraphPair, erdos_renyi_graph


def paper_example_pair():
    target = Graph.from_undirected_edges(4, [(0, 2), (1, 2), (2, 3)])
    query = Graph.from_undirected_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
    )
    return GraphPair(target, query)


def random_pair(seed, n_t=10, n_q=12, e_t=15, e_q=18):
    rng = np.random.default_rng(seed)
    return GraphPair(
        erdos_renyi_graph(n_t, e_t, rng), erdos_renyi_graph(n_q, e_q, rng)
    )


FAST_BUILDERS = {
    "single": (summarize_single, single_window_schedule),
    "coordinated": (summarize_coordinated, coordinated_window_schedule),
}


class TestExactness:
    """Fast builders == from_schedule(serial scheduler), bit for bit."""

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    @pytest.mark.parametrize("capacity", [2, 4, 6, 32])
    def test_matches_serial_on_example(self, scheme, capacity):
        pair = paper_example_pair()
        fast, serial = FAST_BUILDERS[scheme]
        assert fast(pair, capacity) == ScheduleSummary.from_schedule(
            serial(pair, capacity)
        )

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_serial_on_random_pairs(self, scheme, seed):
        pair = random_pair(seed)
        fast, serial = FAST_BUILDERS[scheme]
        for capacity in (2, 5, 8):
            assert fast(pair, capacity) == ScheduleSummary.from_schedule(
                serial(pair, capacity)
            )

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    def test_matches_serial_with_active_subsets(self, scheme):
        pair = random_pair(11)
        fast, serial = FAST_BUILDERS[scheme]
        actives = ([0, 2, 5], [1, 3])
        assert fast(pair, 4, *actives) == ScheduleSummary.from_schedule(
            serial(pair, 4, *actives)
        )

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    def test_matches_serial_on_empty_active_side(self, scheme):
        # Regression: an empty active side used to crash the scheduler.
        pair = random_pair(5)
        fast, serial = FAST_BUILDERS[scheme]
        assert fast(pair, 4, [], [1]) == ScheduleSummary.from_schedule(
            serial(pair, 4, [], [1])
        )


class TestArrayRoundTrip:
    def test_to_from_array(self):
        summary = summarize_single(paper_example_pair(), 4)
        packed = summary.to_array()
        assert packed.shape == (5, summary.num_steps)
        assert packed.dtype == np.int64
        restored = ScheduleSummary.from_array("single", 4, packed)
        assert restored == summary

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(5, steps\)"):
            ScheduleSummary.from_array("single", 4, np.zeros((3, 7)))

    def test_totals_match_schedule(self):
        pair = paper_example_pair()
        schedule = coordinated_window_schedule(pair, 4)
        summary = ScheduleSummary.from_schedule(schedule)
        assert summary.total_matchings == schedule.total_matchings
        assert summary.total_edges == schedule.total_edges
        assert summary.total_misses == schedule.total_misses
        assert summary.num_steps == len(schedule.steps)


class TestSummaryKey:
    def test_wildcards_for_none(self):
        assert summary_key("single", 8, None, None) == "single|8|*|*"

    def test_actives_serialized(self):
        assert (
            summary_key("coordinated", 4, (0, 2), (1,))
            == "coordinated|4|0,2|1"
        )


class TestMemoAndStore:
    def test_memo_returns_same_object(self):
        pair = random_pair(21)
        first = schedule_summary_for(pair, "single", 4)
        second = schedule_summary_for(pair, "single", 4)
        assert first is second

    def test_memoized_summaries_snapshot(self):
        pair = random_pair(22)
        assert memoized_summaries(pair) == {}
        schedule_summary_for(pair, "coordinated", 4)
        snapshot = memoized_summaries(pair)
        assert list(snapshot) == [("coordinated", 4, None, None)]

    def test_store_consulted_before_building(self):
        pair = random_pair(23)
        canned = summarize_single(pair, 4)
        sentinel = ScheduleSummary.from_array(
            "single", 4, canned.to_array().copy()
        )
        store = {summary_key("single", 4, None, None): sentinel}
        result = schedule_summary_for(pair, "single", 4, store=store)
        assert result is sentinel

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError, match="unknown batched scheme"):
            schedule_summary_for(random_pair(1), "oracle-ish", 4)


class TestPairEntry:
    """The per-pair topology and cleanup memo keep builds exact."""

    @pytest.mark.parametrize("scheme", sorted(FAST_BUILDERS))
    @pytest.mark.parametrize(
        "actives", [(None, None), ([0, 3], [1, 2]), ([], [1])]
    )
    def test_capacities_down_then_up_on_one_pair(self, scheme, actives):
        pair = random_pair(31, n_t=16, n_q=18, e_t=40, e_q=45)
        fast, serial = FAST_BUILDERS[scheme]
        for capacity in (32, 8, 5, 2, 8, 32):
            assert fast(pair, capacity, *actives) == (
                ScheduleSummary.from_schedule(serial(pair, capacity, *actives))
            ), capacity

    def test_memoized_rounds_are_replayed(self, monkeypatch):
        replays = []
        original = summary_mod._CleanupRun.replay
        monkeypatch.setattr(
            summary_mod._CleanupRun,
            "replay",
            lambda run, recorder: replays.append(run) or original(run, recorder),
        )
        pair = random_pair(32, n_t=16, n_q=18, e_t=40, e_q=45)
        # An empty active side leaves every edge to the cleanup sweep.
        first = summarize_coordinated(pair, 64, [], [1])
        second = summarize_coordinated(pair, 32, [], [1])
        assert len(replays) == 1
        assert second == ScheduleSummary.from_schedule(
            coordinated_window_schedule(pair, 32, [], [1])
        )
        assert np.array_equal(second.to_array(), first.to_array())

    def test_saturated_cleanup_windows_match_serial(self):
        # A wheel: the hub's neighborhood outgrows a 3-node window, so
        # cleanup windows fill the buffer after a roomy build memoized
        # rounds for the same post-sweep edge state. (The single scheme
        # leaves no cleanup here: its embedding windows cover every edge.)
        edges = [(0, k) for k in range(1, 9)] + [
            (k, k % 8 + 1) for k in range(1, 9)
        ]
        pair = GraphPair(
            Graph.from_undirected_edges(9, edges),
            Graph.from_undirected_edges(9, edges),
        )
        for capacity in (64, 3):
            summary = summarize_coordinated(pair, capacity, [], [0])
            assert summary == ScheduleSummary.from_schedule(
                coordinated_window_schedule(pair, capacity, [], [0])
            )
        cleanup = summary.occupancy[summary.is_cleanup != 0]
        assert cleanup.max() == 3

    def test_entry_released_with_pair(self):
        gc.collect()
        before = len(summary_mod._SUMMARY_MEMO)
        pair = random_pair(33)
        schedule_summary_for(pair, "coordinated", 4)
        assert len(summary_mod._SUMMARY_MEMO) == before + 1
        alive = weakref.ref(pair)
        del pair
        gc.collect()
        assert alive() is None
        assert len(summary_mod._SUMMARY_MEMO) == before

    def test_cleanup_memo_stays_within_bound(self, monkeypatch):
        monkeypatch.setattr(summary_mod, "_SUMMARY_MEMO_PER_PAIR", 3)
        pair = random_pair(34, n_t=16, n_q=18, e_t=40, e_q=45)
        entry_sizes = []
        for last in range(16):
            # Each longer target prefix retires more edges in the sweep,
            # so cleanup starts from a new edge state.
            actives = (list(range(last + 1)), [0])
            assert summarize_coordinated(pair, 64, *actives) == (
                ScheduleSummary.from_schedule(
                    coordinated_window_schedule(pair, 64, *actives)
                )
            )
            entry_sizes.append(len(summary_mod._SUMMARY_MEMO[pair].cleanups))
        assert max(entry_sizes) == 3
