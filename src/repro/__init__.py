"""CEGMA: Coordinated Elastic Graph Matching Acceleration -- reproduction.

A full Python reproduction of "CEGMA: Coordinated Elastic Graph Matching
Acceleration for Graph Matching Networks" (HPCA 2023): the GMN model zoo
(GMN-Li, GraphSim, SimGNN), synthetic Table II datasets, the Elastic
Matching Filter and Cross Graph Coordinator, a cycle-level accelerator
simulator with HyGCN/AWB-GCN/PyG-CPU/PyG-GPU comparison platforms, and a
benchmark harness regenerating every evaluation figure and table.

Quickstart::

    import logging

    from repro import simulate_workload
    from repro.obs import configure_logging

    configure_logging(1)  # route repro.* loggers to stderr at INFO
    logger = logging.getLogger("repro.quickstart")
    results = simulate_workload("GMN-Li", "AIDS", num_pairs=8)
    for platform, result in results.items():
        logger.info("%s: %.3g s/pair", platform, result.latency_per_pair)

Library code never prints; diagnostics flow through the ``repro.*``
logger hierarchy configured by :func:`repro.obs.configure_logging`.
"""

from .core import (
    DEFAULT_PLATFORMS,
    compare_platforms,
    filtered_similarity_matrix,
    simulate_traces,
    simulate_workload,
)
from .counters import FlopCounter
from .graphs import (
    DATASET_NAMES,
    DATASETS,
    Graph,
    GraphPair,
    GraphPairBatch,
    load_dataset,
    make_batches,
)
from .models import MODEL_NAMES, build_model, similarity_matrix
from .platforms import REGISTRY, RunSpec, build_platform, register_platform
from .search import SearchResult, SimilaritySearchIndex
from .sim import AcceleratorSimulator, PlatformResult, cegma_config

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Graph",
    "GraphPair",
    "GraphPairBatch",
    "DATASETS",
    "DATASET_NAMES",
    "MODEL_NAMES",
    "load_dataset",
    "make_batches",
    "build_model",
    "similarity_matrix",
    "filtered_similarity_matrix",
    "simulate_workload",
    "simulate_traces",
    "compare_platforms",
    "DEFAULT_PLATFORMS",
    "REGISTRY",
    "RunSpec",
    "build_platform",
    "register_platform",
    "AcceleratorSimulator",
    "PlatformResult",
    "cegma_config",
    "FlopCounter",
    "SimilaritySearchIndex",
    "SearchResult",
]
