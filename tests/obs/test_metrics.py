"""Tests for the metrics registry: identity, merge laws, activation."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_metrics,
    metric_key,
    metrics_disabled,
    metrics_enabled,
    set_metrics,
)


class TestMetricKey:
    def test_no_labels_is_bare_name(self):
        assert metric_key("sim.cycles", {}) == "sim.cycles"

    def test_labels_are_sorted(self):
        key = metric_key("sim.cycles", {"platform": "CEGMA", "batch": 0})
        assert key == "sim.cycles{batch=0,platform=CEGMA}"


class TestCounters:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 2)
        assert registry.counter("hits") == 3

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.inc("cycles", 5, platform="CEGMA")
        registry.inc("cycles", 7, platform="HyGCN")
        assert registry.counter("cycles", platform="CEGMA") == 5
        assert registry.counter("cycles", platform="HyGCN") == 7
        assert registry.counter("cycles") == 0

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("occupancy", 3)
        registry.set_gauge("occupancy", 9)
        assert registry.gauge("occupancy") == 9
        assert registry.gauge("missing") is None


class TestHistogram:
    def test_observe_tracks_stats(self):
        histogram = Histogram()
        for value in (1, 2, 4, 100):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 107
        assert histogram.min == 1
        assert histogram.max == 100
        assert histogram.mean == pytest.approx(26.75)

    def test_bucket_placement(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 99.0):
            histogram.observe(value)
        # bounds are upper-inclusive; 99 overflows.
        assert histogram.bucket_counts == [2, 0, 1, 1]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))

    def test_merge_requires_same_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_round_trip(self):
        histogram = Histogram()
        histogram.observe(7)
        restored = Histogram.from_dict(histogram.as_dict())
        assert restored.as_dict() == histogram.as_dict()

    def test_empty_round_trip(self):
        restored = Histogram.from_dict(Histogram().as_dict())
        assert restored.count == 0
        assert restored.bounds == DEFAULT_BUCKETS


class TestQuantile:
    def test_empty_returns_none(self):
        assert Histogram().quantile(0.5) is None

    def test_out_of_range_rejected(self):
        histogram = Histogram()
        histogram.observe(1)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_extremes_clamp_to_observed(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (3.0, 4.0, 5.0):
            histogram.observe(value)
        # All observations share the (1, 10] bucket, whose upper bound
        # is 10; the clamp keeps the estimate inside the data.
        assert histogram.quantile(0.0) == 3.0
        assert histogram.quantile(1.0) == 5.0

    def test_median_of_separated_buckets(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 1.5, 3.0, 7.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 2.0

    def test_overflow_bucket_returns_max(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(0.5)
        histogram.observe(50.0)
        assert histogram.quantile(1.0) == 50.0

    def test_quantiles_monotone_after_merge(self):
        a = Histogram(bounds=LATENCY_BUCKETS)
        b = Histogram(bounds=LATENCY_BUCKETS)
        for i in range(10):
            a.observe(1e-4 * (i + 1))
            b.observe(1e-2 * (i + 1))
        a.merge(b)
        p50, p99 = a.quantile(0.5), a.quantile(0.99)
        assert p50 <= p99
        assert a.quantile(0.0) == pytest.approx(1e-4)


class TestLatencyBuckets:
    def test_resolves_sub_second_latencies(self):
        # The default buckets start at 1.0 — useless for request
        # latencies; the latency bounds must separate 100 µs from 10 ms.
        histogram = Histogram(bounds=LATENCY_BUCKETS)
        histogram.observe(1e-4)
        histogram.observe(1e-2)
        occupied = [
            index
            for index, count in enumerate(histogram.bucket_counts)
            if count
        ]
        assert len(occupied) == 2

    def test_observe_bounds_used_at_creation_only(self):
        registry = MetricsRegistry()
        registry.observe("latency", 2e-6, bounds=LATENCY_BUCKETS)
        registry.observe("latency", 3e-6)  # existing histogram wins
        histogram = registry.histogram("latency")
        assert histogram.bounds == LATENCY_BUCKETS
        assert histogram.count == 2


def _record(registry, operations):
    for kind, name, value, labels in operations:
        if kind == "inc":
            registry.inc(name, value, **labels)
        elif kind == "gauge":
            registry.set_gauge(name, value, **labels)
        else:
            registry.observe(name, value, **labels)


def _operations():
    """A deterministic mixed workload of metric recordings."""
    operations = []
    for index in range(60):
        platform = ("CEGMA", "HyGCN", "AWB-GCN")[index % 3]
        operations.append(("inc", "sim.cycles", index + 1, {"platform": platform}))
        operations.append(("observe", "occupancy", (index * 7) % 23, {}))
        if index % 5 == 0:
            operations.append(("gauge", "window", index, {"platform": platform}))
    return operations


class TestMerge:
    def test_counters_add_and_gauges_overwrite(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        a.set_gauge("g", 1)
        b.set_gauge("g", 2)
        a.merge(b)
        assert a.counter("n") == 3
        assert a.gauge("g") == 2

    def test_merge_does_not_alias_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.observe("h", 1)
        a.merge(b)
        b.observe("h", 2)
        assert a.histogram("h").count == 1

    @pytest.mark.parametrize("splits", [(60,), (20, 40), (7, 30, 50)])
    def test_split_points_never_change_totals(self, splits):
        """Merging per-worker registries equals one serial registry, no
        matter where the work was split — the property the parallel
        harness relies on when it fans a run across processes."""
        operations = _operations()
        serial = MetricsRegistry()
        _record(serial, operations)

        bounds = [0, *splits, len(operations)]
        chunks = [
            operations[start:stop]
            for start, stop in zip(bounds, bounds[1:])
        ]
        merged = MetricsRegistry()
        for chunk in chunks:
            worker = MetricsRegistry()
            _record(worker, chunk)
            # Round-trip through as_dict: the wire format workers use.
            merged.merge(MetricsRegistry.from_dict(worker.as_dict()))
        assert merged.as_dict() == serial.as_dict()

    def test_merge_is_associative(self):
        operations = _operations()
        thirds = [operations[0:20], operations[20:40], operations[40:60]]
        parts = []
        for chunk in thirds:
            registry = MetricsRegistry()
            _record(registry, chunk)
            parts.append(registry)

        def snapshot(chunks):
            registries = []
            for chunk in chunks:
                registry = MetricsRegistry()
                _record(registry, chunk)
                registries.append(registry)
            return registries

        left = snapshot(thirds)
        left_assoc = left[0].merge(left[1]).merge(left[2])
        right = snapshot(thirds)
        right[1].merge(right[2])
        right_assoc = right[0].merge(right[1])
        assert left_assoc.as_dict() == right_assoc.as_dict()


class TestRegistrySerialization:
    def test_round_trip(self):
        registry = MetricsRegistry()
        _record(registry, _operations())
        restored = MetricsRegistry.from_dict(registry.as_dict())
        assert restored.as_dict() == registry.as_dict()

    def test_render_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.inc("sim.cycles", 5)
        registry.inc("emf.hits", 2)
        rendered = registry.render("sim.")
        assert "sim.cycles = 5" in rendered
        assert "emf.hits" not in rendered

    def test_clear_and_len(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 1)
        registry.observe("c", 1)
        assert len(registry) == 3
        registry.clear()
        assert len(registry) == 0


class TestActivation:
    def test_disabled_by_default(self):
        assert get_metrics() is None

    def test_context_activates_and_restores(self):
        outer = MetricsRegistry()
        with metrics_enabled(outer) as registry:
            assert registry is outer
            assert get_metrics() is outer
            with metrics_enabled() as inner:
                assert get_metrics() is inner
                assert inner is not outer
            assert get_metrics() is outer
        assert get_metrics() is None

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with metrics_enabled():
                raise RuntimeError("boom")
        assert get_metrics() is None

    def test_disabled_block_inside_enabled_one(self):
        with metrics_enabled() as outer:
            with metrics_disabled():
                assert get_metrics() is None
            assert get_metrics() is outer
            with pytest.raises(RuntimeError):
                with metrics_disabled():
                    raise RuntimeError("boom")
            assert get_metrics() is outer
        assert get_metrics() is None

    def test_set_metrics_returns_previous(self):
        registry = MetricsRegistry()
        assert set_metrics(registry) is None
        assert set_metrics(None) is registry
