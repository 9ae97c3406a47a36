"""Process-local metrics registry: counters, gauges, histograms.

CEGMA's claims are counted quantities — duplicate-node skip rates
(Fig. 18), DRAM accesses (Fig. 17), window revisits minimized by AOE
(Algorithm 2) — so the simulator, the EMF, and the CGC scheduler emit
structured counters while they run instead of surfacing numbers only
through post-hoc figure scripts.

Design constraints, in order:

1. **Free when off.** Instrumentation sites call :func:`get_metrics`
   and skip everything on ``None``; the disabled cost is one module
   attribute read per site, so hot loops (per window step, per GEMM)
   can stay instrumented unconditionally.
2. **Mergeable.** Worker processes of the parallel harness each build a
   private registry and ship ``as_dict()`` payloads back over the pipe;
   :meth:`MetricsRegistry.merge` folds them into the parent. Counter
   and histogram merge is commutative and associative, so split points
   never change totals (asserted by ``tests/obs/test_metrics.py``).
3. **Keyed per run.** Registries are plain objects — activate a fresh
   one per :class:`~repro.platforms.runspec.RunSpec` via
   :func:`metrics_enabled` and snapshot it into a
   :class:`~repro.obs.report.RunReport` at the end.

Metric identity is a name plus optional labels; labels are flattened
into the stored key as ``name{key=value,...}`` with sorted keys, so the
serialized form is stable and diffable.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "get_metrics",
    "set_metrics",
    "metrics_enabled",
    "metrics_disabled",
    "metric_key",
]

# Power-of-two upper bounds: node counts, occupancies, and cycle counts
# all span several orders of magnitude, so log-spaced buckets keep the
# histogram small while still resolving the distribution's shape.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(float(2**i) for i in range(21))

# Wall-clock latency bounds in seconds: 1 µs doubling up to ~67 s. The
# default buckets start at 1.0, which would collapse every sub-second
# request latency into the first bucket; the serving pipeline passes
# these via ``observe(..., bounds=LATENCY_BUCKETS)`` so p50/p99 stay
# resolvable.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(1e-6 * 2**i for i in range(27))


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Flatten ``name`` + labels into the canonical stored key."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max sidecars.

    Buckets are upper bounds (``value <= bound``); values above the last
    bound land in an implicit overflow bucket. Two histograms merge by
    summing bucket counts, which requires identical bounds.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be sorted and unique")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (0..1) from the bucket counts.

        Returns the upper bound of the bucket holding the q-th ranked
        observation, clamped to the observed min/max (so exact for the
        extremes and never outside the data); ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return None
        if q == 0.0:
            return self.min
        rank = max(1, int(-(-q * self.count // 1)))  # ceil without math
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index == len(self.bounds):  # overflow bucket
                    return self.max
                return min(max(self.bounds[index], self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to count

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def as_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Histogram":
        histogram = cls(tuple(float(b) for b in payload["bounds"]))
        counts = [int(c) for c in payload["bucket_counts"]]
        if len(counts) != len(histogram.bucket_counts):
            raise ValueError("bucket count length does not match bounds")
        histogram.bucket_counts = counts
        histogram.count = int(payload["count"])
        histogram.total = float(payload["total"])
        histogram.min = (
            float(payload["min"]) if payload["min"] is not None else float("inf")
        )
        histogram.max = (
            float(payload["max"])
            if payload["max"] is not None
            else float("-inf")
        )
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram(count={self.count}, mean={self.mean:.3f})"


class MetricsRegistry:
    """One run's counters, gauges, and histograms.

    Counters accumulate (``inc``), gauges record the latest value
    (``set_gauge``), histograms record distributions (``observe``).
    Labels are keyword arguments on every recording call.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self._gauges[metric_key(name, labels)] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        bounds: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> None:
        """Record ``value`` into the named histogram.

        ``bounds`` selects the bucket layout when the histogram is first
        created (e.g. :data:`LATENCY_BUCKETS` for sub-second wall-clock
        times); later calls reuse the existing layout.
        """
        key = metric_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(
                DEFAULT_BUCKETS if bounds is None else bounds
            )
        histogram.observe(value)

    # -- reading -------------------------------------------------------
    def counter(self, name: str, **labels: object) -> float:
        return self._counters.get(metric_key(name, labels), 0.0)

    def gauge(self, name: str, **labels: object) -> Optional[float]:
        return self._gauges.get(metric_key(name, labels))

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        return self._histograms.get(metric_key(name, labels))

    @property
    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- merging / serialization ---------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry in: counters add, gauges overwrite
        (``other`` wins — its run is the more recent observation),
        histograms merge bucket-wise. Returns ``self``."""
        for key, value in other._counters.items():
            self._counters[key] = self._counters.get(key, 0.0) + value
        self._gauges.update(other._gauges)
        for key, histogram in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                clone = Histogram(histogram.bounds)
                clone.merge(histogram)
                self._histograms[key] = clone
            else:
                mine.merge(histogram)
        return self

    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                key: histogram.as_dict()
                for key, histogram in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MetricsRegistry":
        registry = cls()
        registry._counters = {
            str(key): float(value)
            for key, value in payload.get("counters", {}).items()
        }
        registry._gauges = {
            str(key): float(value)
            for key, value in payload.get("gauges", {}).items()
        }
        registry._histograms = {
            str(key): Histogram.from_dict(value)
            for key, value in payload.get("histograms", {}).items()
        }
        return registry

    def render(self, prefix: str = "") -> str:
        """Human-readable dump, optionally filtered to a name prefix."""
        lines = []
        for key, value in sorted(self._counters.items()):
            if key.startswith(prefix):
                lines.append(f"{key} = {value:g}")
        for key, value in sorted(self._gauges.items()):
            if key.startswith(prefix):
                lines.append(f"{key} = {value:g} (gauge)")
        for key, histogram in sorted(self._histograms.items()):
            if key.startswith(prefix):
                lines.append(
                    f"{key}: count={histogram.count} mean={histogram.mean:.3f}"
                    f" min={histogram.min if histogram.count else '-'}"
                    f" max={histogram.max if histogram.count else '-'}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )


# ----------------------------------------------------------------------
# The process-wide active registry. Instrumentation sites read it via
# get_metrics() and do nothing when it is None, which is the default.

_ACTIVE: Optional[MetricsRegistry] = None


def get_metrics() -> Optional[MetricsRegistry]:
    """The active registry, or None when metrics are disabled."""
    return _ACTIVE


def set_metrics(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Install ``registry`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextmanager
def metrics_enabled(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Activate a registry for the duration of the block.

    Yields the registry (a fresh one unless provided) and restores the
    previous active registry on exit, so nesting is safe.
    """
    active = registry if registry is not None else MetricsRegistry()
    previous = set_metrics(active)
    try:
        yield active
    finally:
        set_metrics(previous)


@contextmanager
def metrics_disabled() -> Iterator[None]:
    """Run the block with no active registry, restoring it on exit.

    Code that skips work or takes a fast path when metrics are off
    behaves here as in a metric-free run, even inside an enclosing
    :func:`metrics_enabled` block.
    """
    previous = set_metrics(None)
    try:
        yield
    finally:
        set_metrics(previous)
