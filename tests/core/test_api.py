"""Tests for the high-level public API."""

import numpy as np
import pytest

from repro import (
    DEFAULT_PLATFORMS,
    REGISTRY,
    compare_platforms,
    filtered_similarity_matrix,
    similarity_matrix,
    simulate_traces,
    simulate_workload,
)
from repro.counters import FlopCounter
from repro.experiments.common import workload_traces


class TestFilteredSimilarity:
    @pytest.mark.parametrize("kind", ["dot", "cosine", "euclidean"])
    def test_lossless_on_exact_duplicates(self, kind):
        rng = np.random.default_rng(0)
        base_x, base_y = rng.normal(size=(5, 8)), rng.normal(size=(4, 8))
        x = base_x[rng.integers(0, 5, size=20)]
        y = base_y[rng.integers(0, 4, size=15)]
        dense = similarity_matrix(x, y, kind)
        filtered = filtered_similarity_matrix(x, y, kind)
        assert np.array_equal(dense, filtered)

    def test_flops_reduced(self):
        x = np.ones((50, 16))
        y = np.ones((40, 16))
        dense_flops, filtered_flops = FlopCounter(), FlopCounter()
        similarity_matrix(x, y, "dot", dense_flops)
        filtered_similarity_matrix(x, y, "dot", filtered_flops)
        assert filtered_flops.total < dense_flops.total / 100

    def test_no_duplicates_no_savings(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
        dense_flops, filtered_flops = FlopCounter(), FlopCounter()
        similarity_matrix(x, y, "dot", dense_flops)
        filtered = filtered_similarity_matrix(x, y, "dot", filtered_flops)
        assert filtered_flops.counts["match"] == dense_flops.counts["match"]
        assert np.array_equal(filtered, similarity_matrix(x, y, "dot"))


class TestSimulateWorkload:
    def test_default_platforms(self):
        results = simulate_workload(
            "SimGNN", "AIDS", num_pairs=2, batch_size=2
        )
        assert set(results) == set(DEFAULT_PLATFORMS)
        for result in results.values():
            assert result.num_pairs == 2

    def test_platform_subset(self):
        results = simulate_workload(
            "SimGNN", "AIDS", platforms=("CEGMA",), num_pairs=2, batch_size=2
        )
        assert set(results) == {"CEGMA"}

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            simulate_workload(
                "SimGNN", "AIDS", platforms=("TPU",), num_pairs=2, batch_size=2
            )

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            simulate_workload("GNN-X", "AIDS", num_pairs=2)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            simulate_workload("SimGNN", "IMDB", num_pairs=2)


class TestSimulateTraces:
    def test_shares_trace_across_platforms(self):
        traces = workload_traces("SimGNN", "AIDS", 2, 2, 0)
        results = simulate_traces(traces, ("CEGMA", "AWB-GCN"))
        assert results["CEGMA"].num_pairs == results["AWB-GCN"].num_pairs == 2

    def test_all_registered_platforms_buildable(self):
        for name in REGISTRY.names():
            simulator = REGISTRY.build(name)
            assert hasattr(simulator, "simulate_batches"), name


class TestComparePlatforms:
    def test_baseline_is_one(self):
        speedups = compare_platforms(
            "SimGNN", "AIDS", num_pairs=2, batch_size=2
        )
        assert speedups["PyG-CPU"] == pytest.approx(1.0)
        assert speedups["CEGMA"] > speedups["PyG-GPU"] > 1.0

    def test_custom_baseline(self):
        speedups = compare_platforms(
            "SimGNN",
            "AIDS",
            baseline="CEGMA",
            platforms=("CEGMA", "AWB-GCN"),
            num_pairs=2,
            batch_size=2,
        )
        assert speedups["CEGMA"] == pytest.approx(1.0)
        assert speedups["AWB-GCN"] < 1.0

    def test_baseline_must_be_simulated(self):
        with pytest.raises(KeyError):
            compare_platforms(
                "SimGNN",
                "AIDS",
                baseline="PyG-GPU",
                platforms=("CEGMA",),
                num_pairs=2,
                batch_size=2,
            )
