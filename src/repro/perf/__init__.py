"""Performance layer: timing, trace caching, and parallel fan-out.

This package holds the infrastructure that makes the reproduction run
"as fast as the hardware allows":

- :mod:`repro.perf.timing` — the machine-readable ``BENCH_*.json``
  report format.
- :mod:`repro.perf.trace_cache` — a persistent on-disk workload-trace
  cache (keyed by model/dataset/seed/pair-count/batch) so repeated
  harness invocations skip re-profiling entirely.
- :mod:`repro.perf.parallel` — a ``ProcessPoolExecutor`` runner that
  fans (model, dataset) workloads and graph-pair chunks across cores.
- :mod:`repro.perf.bench` — the microbenchmarks behind
  ``python -m repro bench``, recording the scalar-vs-vectorized EMF,
  serial-vs-optimized harness, and flat-vs-pipelined serving speedups.
"""

from .timing import BenchReport
from .trace_cache import TraceCache, default_trace_cache
from .parallel import (
    available_workers,
    parallel_simulate_workload,
    parallel_workload_results,
)

__all__ = [
    "BenchReport",
    "TraceCache",
    "default_trace_cache",
    "available_workers",
    "parallel_simulate_workload",
    "parallel_workload_results",
]
