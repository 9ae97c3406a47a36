"""Process-pool fan-out: the one worker transport.

Every multi-process path in the repo — the experiment harness and the
serving executor alike — runs on two building blocks:

- :func:`parallel_map` runs tasks on a ``ProcessPoolExecutor`` and
  returns their results in task order, with a complete serial fallback.
  It also carries worker telemetry: when the parent collects metrics or
  spans, each task runs under a private registry and tracer whose
  contents ship back over the pipe and merge at join, every span
  keeping its worker ``pid``.
- :func:`shared_memory_map` wraps it for tasks that read one large
  read-only image (an uncompressed ``.npz``). The image is published
  once into a ``multiprocessing`` shared-memory segment, each task gets
  a zero-copy view of it, and the segment is closed and unlinked in one
  place. When no segment can be created it returns ``None`` and the
  caller does the work in-process.

The harness entry points are thin callers of the two:

- :func:`parallel_run_specs` fans whole workloads across the pool.
  Workloads cross the process boundary as serialized
  :class:`~repro.platforms.runspec.RunSpec` payloads — the same
  canonical key the memo and disk caches use — so the transport can
  never drift from the cache keys.
- :func:`parallel_simulate_workload` splits ONE workload's graph pairs
  into contiguous chunks at batch-size boundaries. The parent profiles
  the workload once (through the cached ``traces_for`` path) and
  publishes the trace image; each worker rebuilds the traces as
  zero-copy views and simulates only its chunk's batches. Without a
  segment the parent simulates the same chunks in-process.

Chunking at multiples of ``batch_size`` keeps batch boundaries — and
therefore every simulated cycle count — identical to a serial run.
Merged floating-point accumulators (energy, seconds) are summed in a
different association order than one long serial sum, so they can
differ from a serial run at the ulp level; cycle counts are integral
per batch and merge exactly.

Every entry point degrades gracefully to in-process execution when only
one worker is requested, when there is only one task, or when the host
refuses to spawn processes (sandboxes without /dev/shm, 1-core boxes).
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from functools import partial
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry, get_metrics, set_metrics
from ..obs.tracing import Tracer, get_tracer, set_tracer
from ..platforms.runspec import RunSpec

__all__ = [
    "available_workers",
    "parallel_map",
    "shared_memory_map",
    "parallel_run_specs",
    "parallel_simulate_workload",
]

logger = logging.getLogger("repro.perf.parallel")

#: ``tracer=`` default of the maps: fold worker spans into the tracer
#: that is active when the map is called.
_ACTIVE_TRACER = object()


def available_workers(requested: Optional[int] = None) -> int:
    """Clamp a worker request to the CPUs this process may run on (min 1).

    Counts the process's CPU affinity mask where the platform has one,
    so a pinned process (``taskset``, a container cpuset) does not
    oversubscribe the CPUs it actually gets.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - macOS and Windows have no affinity call
        cores = os.cpu_count() or 1
    if requested is None:
        return cores
    return max(1, min(requested, cores))


# ----------------------------------------------------------------------
# Worker telemetry: a task records into a private registry and tracer,
# ships {"metrics": registry.as_dict(), "spans": tracer.events} back
# over the pipe, and the parent merges at join.


def _telemetry_payload(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> dict:
    """One worker's telemetry for the pipe: metrics and span records."""
    payload: dict = {}
    if registry is not None:
        payload["metrics"] = registry.as_dict()
    if tracer is not None and len(tracer):
        payload["spans"] = tracer.events
    return payload


def _merge_worker_telemetry(
    payload: Optional[dict], tracer: Optional[Tracer] = None
) -> None:
    """Fold one worker's :func:`_telemetry_payload` in.

    Metrics merge into the active registry; spans fold into ``tracer``
    (default: the active one), keeping the worker's ``pid``.
    """
    if payload is None:
        return
    registry = get_metrics()
    if registry is not None and "metrics" in payload:
        registry.merge(MetricsRegistry.from_dict(payload["metrics"]))
    tracer = tracer if tracer is not None else get_tracer()
    if tracer is not None:
        tracer.add_events(payload.get("spans", ()))


def _collected(task_fn: Callable, telemetry: Tuple[bool, bool], task):
    """Run ``task_fn(task)`` under a private registry and tracer.

    ``telemetry`` is the parent's ``(metrics, trace)`` pair. A flag
    that is off leaves no registry (or tracer) active, masking whatever
    the process inherited, so a task records exactly what its parent
    collects. Returns ``(result, payload)``; the payload is ``None``
    when the parent collects nothing. Metric merge is commutative and
    associative, so fan-out does not change the totals.
    """
    metrics, trace = telemetry
    registry = MetricsRegistry() if metrics else None
    tracer = Tracer() if trace else None
    previous_registry = set_metrics(registry)
    previous_tracer = set_tracer(tracer)
    try:
        result = task_fn(task)
    finally:
        set_metrics(previous_registry)
        set_tracer(previous_tracer)
    if not (metrics or trace):
        return result, None
    return result, _telemetry_payload(registry, tracer)


# ----------------------------------------------------------------------
# The two maps.


def parallel_map(
    task_fn: Callable,
    tasks: Sequence,
    workers: int,
    *,
    tracer=_ACTIVE_TRACER,
) -> List:
    """``[task_fn(task) for task in tasks]``, fanned across processes.

    ``task_fn`` must be picklable (a module-level function) and returns
    a plain result; results come back in task order. Metrics are
    collected when a registry is active, spans when ``tracer`` is set —
    by default the active tracer; a caller that keeps its own (the
    serving executor) passes it, or ``None`` for no spans. Worker
    metrics merge into the active registry and worker spans into
    ``tracer``.

    Two failure shapes degrade to in-process execution of the *entire*
    task list, so the caller always receives one result per task and the
    merged metrics registry stays complete:

    - the pool never starts (``OSError``/``PermissionError``: sandboxes
      without /dev/shm, fork limits), and
    - a worker dies mid-task (``BrokenExecutor``: OOM-killed child,
      hard crash), which ``pool.map`` surfaces after partial progress.

    Failures are counted as ``perf.parallel.worker_failures`` on the
    active registry so regression tooling can see that a run fell back,
    instead of the failure vanishing into identical results.
    """
    if tracer is _ACTIVE_TRACER:
        tracer = get_tracer()
    runner = partial(
        _collected, task_fn, (get_metrics() is not None, tracer is not None)
    )
    raw = None
    if workers > 1 and len(tasks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                raw = list(pool.map(runner, tasks))
        except (OSError, BrokenExecutor) as exc:
            registry = get_metrics()
            if registry is not None:
                registry.inc(
                    "perf.parallel.worker_failures",
                    kind=type(exc).__name__,
                )
            logger.warning(
                "process pool failed (%s: %s); re-running %d task(s) serially",
                type(exc).__name__,
                exc,
                len(tasks),
            )
    if raw is None:
        raw = [runner(task) for task in tasks]
    for _, payload in raw:
        _merge_worker_telemetry(payload, tracer)
    return [result for result, _ in raw]


def _attached(name: str, size: int, task_fn: Callable, task):
    """Worker side of :func:`shared_memory_map`: attach, run, detach."""
    segment = shared_memory.SharedMemory(name=name)
    try:
        return task_fn(segment.buf[:size], task)
    finally:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - views still referenced
            pass  # process exit unmaps; the parent unlinks


def shared_memory_map(
    task_fn: Callable,
    image: bytes,
    tasks: Sequence,
    workers: int,
    *,
    failure_counter: str,
    fallback: str,
    tracer=_ACTIVE_TRACER,
) -> Optional[List]:
    """:func:`parallel_map` over a read-only image in shared memory.

    Each task runs as ``task_fn(view, task)``, where ``view`` is a
    zero-copy view of ``image`` attached in the worker and sliced to the
    image length (segments round up to a page). With its worker side,
    this is the only code that creates, attaches, closes or unlinks a
    segment.

    Returns ``None`` when the segment cannot be created (no /dev/shm,
    exhausted shared memory): the failure is counted as
    ``failure_counter{kind=...}`` on the active registry and logged with
    ``fallback``, the caller's description of what it does instead.
    """
    try:
        segment = shared_memory.SharedMemory(create=True, size=len(image))
    except (OSError, ValueError) as exc:
        registry = get_metrics()
        if registry is not None:
            registry.inc(failure_counter, kind=type(exc).__name__)
        logger.warning(
            "shared-memory segment unavailable (%s: %s); %s",
            type(exc).__name__,
            exc,
            fallback,
        )
        return None
    try:
        segment.buf[: len(image)] = image
        return parallel_map(
            partial(_attached, segment.name, len(image), task_fn),
            tasks,
            workers,
            tracer=tracer,
        )
    finally:
        segment.close()
        segment.unlink()


# ----------------------------------------------------------------------
# Grain 1: one task per workload spec.


def _spec_task(task: Tuple[dict, Tuple[str, ...]]) -> Dict:
    """Worker body: simulate one workload via the shared cached path."""
    spec_payload, platforms = task
    from ..experiments.common import results_for

    return results_for(RunSpec.from_dict(spec_payload), platforms)


def parallel_run_specs(
    specs: Sequence[RunSpec],
    platforms: Sequence[str],
    workers: Optional[int] = None,
) -> Dict[RunSpec, Dict]:
    """Simulate many workload specs, fanning across processes.

    Returns ``{spec: {platform: PlatformResult}}``. With one worker (or
    one spec, or a pool that fails to start) this runs serially
    in-process and produces the identical mapping. When the parent has
    an active metrics registry or tracer, each worker collects its own
    and the parent merges them at join.
    """
    workers = available_workers(workers)
    registry = get_metrics()
    if registry is not None:
        registry.set_gauge("perf.parallel.workers", workers)
    tasks = [(spec.to_dict(), tuple(platforms)) for spec in specs]
    return dict(zip(specs, parallel_map(_spec_task, tasks, workers)))


# ----------------------------------------------------------------------
# Grain 2: one task per graph-pair chunk within a single workload.


def _chunk_bounds(
    num_pairs: int, batch_size: int, workers: int
) -> List[Tuple[int, int]]:
    """Contiguous [start, stop) slices aligned to batch boundaries.

    An empty workload yields no chunks (the degenerate stride would
    otherwise be zero and ``range`` rejects it).
    """
    if num_pairs <= 0:
        return []
    num_batches = -(-num_pairs // batch_size)
    batches_per_chunk = -(-num_batches // workers)
    stride = batches_per_chunk * batch_size
    return [
        (start, min(start + stride, num_pairs))
        for start in range(0, num_pairs, stride)
    ]


def _simulate_chunk(view, task: Tuple[Tuple[str, ...], int, int]) -> Dict:
    """Worker body: simulate batches ``[lo, hi)`` of the shared traces.

    The traces are rebuilt as zero-copy views over ``view``; pages
    belonging to other chunks are never touched.
    """
    platforms, lo, hi = task
    from ..core.api import simulate_traces
    from ..trace.io import traces_from_buffer

    return simulate_traces(traces_from_buffer(view)[lo:hi], platforms)


def parallel_simulate_workload(
    spec: RunSpec,
    platforms: Sequence[str],
    workers: Optional[int] = None,
) -> Dict[str, "object"]:
    """:func:`repro.core.api.simulate_workload`, chunked across processes.

    Returns ``{platform: PlatformResult}`` with per-chunk results merged
    in chunk order, so repeated runs are deterministic. The parent
    profiles once and the traces travel to the workers through shared
    memory; with one chunk, or when the host cannot allocate a segment,
    the parent simulates the same chunks in-process instead.
    """
    from ..core.api import simulate_traces
    from ..experiments.common import traces_for
    from ..trace.io import traces_to_npz_bytes

    workers = available_workers(workers)
    registry = get_metrics()
    if registry is not None:
        registry.set_gauge("perf.parallel.workers", workers)
    bounds = _chunk_bounds(spec.num_pairs, spec.batch_size, workers)
    if not bounds:
        return {}
    traces = traces_for(spec)
    batch = spec.batch_size
    tasks = [
        (tuple(platforms), start // batch, -(-stop // batch))
        for start, stop in bounds
    ]
    chunk_results = None
    if workers > 1 and len(tasks) > 1:
        chunk_results = shared_memory_map(
            _simulate_chunk,
            traces_to_npz_bytes(traces),
            tasks,
            workers,
            failure_counter="perf.parallel.shm_failures",
            fallback="simulating the chunks in-process",
        )
    if chunk_results is None:
        chunk_results = [
            simulate_traces(traces[lo:hi], platforms) for _, lo, hi in tasks
        ]
    merged: Dict[str, "object"] = {}
    for results in chunk_results:
        for platform, result in results.items():
            if platform in merged:
                merged[platform].merge(result)
            else:
                merged[platform] = result
    return merged
