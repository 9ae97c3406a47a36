"""Tests for the request-scoped views of the span recorder."""

import pytest

from repro.obs import metrics_enabled
from repro.obs.tracing import Tracer, render_tree


class TestStageSpan:
    def test_wire_round_trip(self):
        worker = Tracer()
        event = worker.record(
            "execute.shard",
            9.0,
            9.25,
            parent="execute",
            request_ids=(7, 8),
            shard="0:4",
        )
        parent = Tracer()
        parent.add_events(worker.events)
        assert parent.events == [event]
        assert parent.spans_for(8) == [event]
        assert event["args"] == {"shard": "0:4"}
        assert event["dur"] == pytest.approx(0.25e6)

    def test_wire_omits_empty_optionals(self):
        tracer = Tracer()
        event = tracer.record("rank", 0.0, 1.0)
        assert set(event) == {"name", "cat", "ph", "ts", "dur", "pid", "tid"}


class TestRecording:
    def test_budgets_sum_top_level_durations(self):
        tracer = Tracer()
        tracer.record("admission", 0.0, 0.1, request_ids=(1,))
        tracer.record("execute", 0.1, 0.6, request_ids=(1,))
        tracer.record(
            "execute.shard", 0.1, 0.3, parent="execute", request_ids=(1,)
        )
        budgets = tracer.budgets(1)
        # Child spans never count toward the budget: they overlap their
        # parent, so including them would double-count wall-clock time.
        assert budgets == pytest.approx({"admission": 0.1, "execute": 0.5})
        assert sum(budgets.values()) == pytest.approx(0.6)

    def test_negative_durations_clamp_to_zero(self):
        tracer = Tracer()
        event = tracer.record("rank", 5.0, 4.5, request_ids=(1,))
        assert event["dur"] == 0.0

    def test_unknown_request_reads_are_empty(self):
        tracer = Tracer()
        assert tracer.spans_for(99) == []
        assert tracer.annotations_for(99) == {}
        assert tracer.budgets(99) == {}
        assert tracer.tree(99) is None

    def test_eviction_counts_dropped_spans(self):
        tracer = Tracer(max_spans=2)
        with metrics_enabled() as registry:
            tracer.record("admission", 0.0, 0.1, request_ids=(1,))
            tracer.record("execute", 0.1, 0.3, request_ids=(1,))
            tracer.record("admission", 0.0, 0.1, request_ids=(2,))
            tracer.record("admission", 0.0, 0.1, request_ids=(3,))
        assert tracer.request_ids() == [2, 3]
        assert tracer.dropped_spans == 2
        assert registry.counter("obs.context.dropped_spans") == 2

    def test_eviction_without_registry_still_counts(self):
        tracer = Tracer(max_spans=1)
        tracer.record("admission", 0.0, 0.1, request_ids=(1,))
        tracer.record("admission", 0.0, 0.1, request_ids=(2,))
        assert tracer.dropped_spans == 1

    def test_max_requests_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestSharedSpans:
    def test_group_members_share_one_span(self):
        """A span recorded once for a dedup group joins every member's
        view; its own stages stay per request."""
        tracer = Tracer()
        tracer.record("execute", 0.0, 0.5, request_ids=(1, 2, 3))
        shard = tracer.record(
            "execute.shard", 0.0, 0.2, parent="execute",
            request_ids=(1, 2, 3), shard="0:4",
        )
        tracer.record("respond", 0.5, 0.6, request_ids=(2,))
        assert len(tracer) == 3
        for member in (1, 2, 3):
            assert shard in tracer.spans_for(member)
        assert tracer.budgets(1) == pytest.approx({"execute": 0.5})
        assert tracer.budgets(2) == pytest.approx(
            {"execute": 0.5, "respond": 0.1}
        )

    def test_eviction_unlinks_shared_span_from_every_member(self):
        tracer = Tracer(max_spans=2)
        tracer.record("schedule", 0.0, 0.1, request_ids=(1, 2))
        tracer.record("admission", 0.0, 0.1, request_ids=(2,))
        tracer.record("admission", 0.0, 0.1, request_ids=(3,))
        assert tracer.request_ids() == [2, 3]
        assert [s["name"] for s in tracer.spans_for(2)] == ["admission"]


class TestTree:
    def _tracked(self):
        tracer = Tracer()
        tracer.annotate([5], batch=0, primary=5)
        tracer.record("admission", 0.0, 0.1, request_ids=(5,))
        tracer.record("execute", 0.2, 0.7, request_ids=(5,))
        tracer.record(
            "execute.shard",
            0.25,
            0.45,
            parent="execute",
            request_ids=(5,),
            shard="0:4",
        )
        tracer.record("schedule", 0.1, 0.2, request_ids=(5,))
        return tracer

    def test_children_nest_under_parent_stage(self):
        tree = self._tracked().tree(5)
        stages = [node["stage"] for node in tree["spans"]]
        # Top-level spans are ordered by start time regardless of the
        # order they were recorded in.
        assert stages == ["admission", "schedule", "execute"]
        execute = tree["spans"][2]
        assert [c["stage"] for c in execute["children"]] == ["execute.shard"]
        assert execute["children"][0]["attrs"] == {"shard": "0:4"}
        assert tree["annotations"] == {"batch": "0", "primary": "5"}
        assert "orphan_spans" not in tree

    def test_orphan_children_are_kept_and_counted(self):
        tracer = Tracer()
        tracer.record(
            "execute.shard", 0.0, 0.1, parent="execute", request_ids=(1,)
        )
        tree = tracer.tree(1)
        assert tree["orphan_spans"] == 1
        assert [node["stage"] for node in tree["spans"]] == ["execute.shard"]

    def test_render_tree_is_readable(self):
        text = render_tree(self._tracked().tree(5))
        assert text.splitlines()[0] == "request 5"
        assert "[batch=0 primary=5]" in text
        assert "- execute: 500.000 ms" in text
        assert "    - execute.shard: 200.000 ms {shard=0:4}" in text


class TestWorkerTransport:
    def test_wire_ingest_round_trip(self):
        worker = Tracer()
        worker.record(
            "execute.shard",
            9.0,
            9.25,
            parent="execute",
            request_ids=(3,),
            shard="4:8",
        )
        parent = Tracer()
        parent.add_events(worker.events)
        assert len(parent) == 1
        (span,) = parent.spans_for(3)
        assert span == worker.spans_for(3)[0]

    def test_ingest_parent_override(self):
        """A worker records its shard spans under ``execute``; folding
        them in keeps that parent and the worker's pid."""
        worker = Tracer()
        worker.pid = 4242
        worker.record("execute.shard", 0.0, 0.1, parent="execute",
                      request_ids=(1,))
        parent = Tracer()
        parent.record("execute", 0.0, 0.2, request_ids=(1,))
        parent.add_events(worker.events)
        (execute,) = parent.tree(1)["spans"]
        assert [c["stage"] for c in execute["children"]] == ["execute.shard"]
        assert parent.spans_for(1)[1]["pid"] == 4242

    def test_wire_spans_filters_by_request(self):
        tracer = Tracer()
        tracer.record("rank", 0.0, 0.1, request_ids=(1,))
        tracer.record("rank", 0.0, 0.1, request_ids=(2,))
        assert [
            span["request_ids"] for span in tracer.spans_for(2)
        ] == [(2,)]
