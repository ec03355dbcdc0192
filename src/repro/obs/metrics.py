"""Dependency-free, thread-safe metrics primitives.

Three metric kinds cover everything the serving stack needs to report:

* :class:`Counter` — a monotonically increasing total (requests served,
  cache hits, specs shed);
* :class:`Gauge` — a value that goes up and down (tasks in flight, queue
  depth), remembering its high-water mark;
* :class:`Histogram` — a **fixed-bucket** latency/size distribution.  An
  observation is one lock-protected bucket increment; a snapshot reports
  count, sum, min, max and p50/p95/p99 estimated by linear interpolation
  inside the owning bucket (the classic Prometheus-style estimate: exact
  bucket counts, approximate quantiles, O(buckets) memory forever).

All three hang off a :class:`MetricsRegistry`, which creates metrics on
first use (``registry.counter("cache.hits").inc()``) so instrumentation
never needs declaration ceremony.  Names are dotted paths; dynamic label
segments go last (``router.routed.worker-00``).  A process-default registry
(:func:`get_default_registry`) is what the serving stack instruments against
— one ``snapshot()`` describes the whole process — while tests and embedded
deployments can pass their own registry for isolation.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Sequence

#: Default latency buckets (seconds): sub-millisecond to ten seconds.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default size buckets (counts): micro-batch sizes, queue depths.
SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Counter:
    """A monotonically increasing total."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def to_payload(self) -> int:
        return self.value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A value that can go up and down, with a high-water mark."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._high = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            self._high = max(self._high, value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount
            self._high = max(self._high, self._value)

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def high_water(self) -> float:
        with self._lock:
            return self._high

    def to_payload(self) -> dict[str, float]:
        with self._lock:
            return {"value": self._value, "high_water": self._high}

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._high = 0.0


class Histogram:
    """Fixed-bucket distribution with percentile snapshots.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket (``+inf``) is always appended.  Quantiles are estimated
    by walking the cumulative bucket counts and interpolating linearly
    inside the bucket holding the target rank — exact when observations are
    uniform within a bucket, and never off by more than one bucket width.
    """

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted, non-empty sequence")
        self.name = name
        self.bounds = tuple(float(bound) for bound in bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index == len(self.bounds):
                    # Overflow (+Inf) bucket: there is no finite upper edge to
                    # interpolate against, so report the observed maximum
                    # rather than inventing a value near the top finite edge.
                    return self._max
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                # Clamp the interpolation window to what was actually seen,
                # so small samples don't report a bucket edge nobody hit.
                lower = max(lower, self._min if self._min is not math.inf else lower)
                upper = min(upper, self._max if self._max is not -math.inf else upper)
                if upper <= lower:
                    return upper
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return self._max  # pragma: no cover - unreachable with count > 0

    def to_payload(self) -> dict[str, Any]:
        with self._lock:
            payload: dict[str, Any] = {
                "count": self._count,
                "sum": round(self._sum, 9),
                "min": round(self._min, 9) if self._count else 0.0,
                "max": round(self._max, 9) if self._count else 0.0,
                "p50": round(self._quantile_locked(0.50), 9),
                "p95": round(self._quantile_locked(0.95), 9),
                "p99": round(self._quantile_locked(0.99), 9),
            }
            buckets: dict[str, int] = {}
            for bound, bucket_count in zip(self.bounds, self._counts):
                if bucket_count:
                    buckets[f"le_{bound:g}"] = bucket_count
            if self._count:
                # The +Inf overflow bucket is always explicit on non-empty
                # histograms, so readers can tell "no overflow" from
                # "overflow not reported".
                buckets["le_inf"] = self._counts[-1]
            payload["buckets"] = buckets
            return payload

    def bucket_counts(self) -> tuple[tuple[int, ...], int, float]:
        """One consistent ``(counts, count, sum)`` view of the distribution.

        ``counts`` includes the trailing overflow bucket and is read under
        the histogram lock, so the tuple is never torn against a concurrent
        :meth:`observe` — the contract the rolling time-series layer
        (:mod:`repro.obs.timeseries`) samples against.
        """
        with self._lock:
            return tuple(self._counts), self._count, self._sum

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


class MetricsRegistry:
    """Creates-on-first-use store of named metrics; snapshot is plain JSON."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type, factory) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested as {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    # ------------------------------------------------------------- reporting
    def snapshot(self, prefix: str = "") -> dict[str, Any]:
        """One JSON-able view of every metric (optionally name-filtered)."""
        with self._lock:
            metrics = {
                name: metric
                for name, metric in sorted(self._metrics.items())
                if name.startswith(prefix)
            }
        counters: dict[str, int] = {}
        gauges: dict[str, dict[str, float]] = {}
        histograms: dict[str, dict[str, Any]] = {}
        for name, metric in metrics.items():
            if isinstance(metric, Counter):
                counters[name] = metric.to_payload()
            elif isinstance(metric, Gauge):
                gauges[name] = metric.to_payload()
            else:
                histograms[name] = metric.to_payload()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def items(self, prefix: str = "") -> "list[tuple[str, Counter | Gauge | Histogram]]":
        """The live metric objects (optionally name-filtered), sorted by name.

        Unlike :meth:`snapshot` this hands out the objects themselves — the
        time-series sampler reads them directly so one sampling pass costs
        one small lock per metric instead of a full payload render.
        """
        with self._lock:
            return [
                (name, metric)
                for name, metric in sorted(self._metrics.items())
                if name.startswith(prefix)
            ]

    def reset(self) -> None:
        """Zero every metric **in place** (benchmarks, ``stats --reset``).

        Metric objects survive: components cache handles at construction
        (``self._m_hits = registry.counter(...)``), so dropping entries from
        the dict would silently disconnect them.  Zeroing keeps every cached
        handle live while isolating per-run numbers.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


#: The registry the serving stack instruments against by default.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    """The process-wide default registry (one snapshot per process)."""
    return _DEFAULT_REGISTRY


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "SIZE_BUCKETS",
    "get_default_registry",
]
