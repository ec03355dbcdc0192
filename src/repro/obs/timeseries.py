"""Rolling time-series over the metrics registry: rates, deltas, windowed percentiles.

The metrics core (:mod:`repro.obs.metrics`) answers "how many since process
start"; autoscalers, SLO burn-rate rules and ``repro top`` all need "how
many *per second over the last minute*".  This module derives those views
without touching the request hot path:

* a :class:`TimeSeriesSampler` walks the registry whenever it is asked to
  (the :class:`~repro.obs.slo.HealthMonitor` tick, or an on-demand
  :meth:`~TimeSeriesSampler.ensure_fresh`; it owns no thread) and appends
  one ``(t, value)`` sample per metric into a fixed-size ring buffer —
  counters keep their running total, gauges their current value, histograms
  one consistent copy of their cumulative bucket counts
  (:meth:`~repro.obs.metrics.Histogram.bucket_counts`);
* window queries are pure functions over those samples: a counter's
  **rate/delta** over the last 10s/1m/5m, a gauge's latest/mean/max, and a
  histogram's **windowed p50/p95/p99** computed from the *difference* of
  cumulative bucket counts across the window — the quantile of what
  happened recently, not since boot.

Concurrency is deliberately lock-cheap: each series is a
``collections.deque(maxlen=...)`` with a single writer (the sampling pass,
serialized by one sampler lock) whose ``append`` is atomic in CPython, and
readers snapshot via ``list(deque)`` — no per-sample lock is ever taken on
a query, and nothing here runs inside the serving request path.

Resets are tolerated by construction: ``MetricsRegistry.reset()`` makes a
cumulative value go *backwards*, so every windowed delta clamps at zero
(per histogram bucket too) — a reset mid-window reads as "nothing happened
yet", never as a negative rate.

All window math runs on an injectable monotonic clock (``time.monotonic``
by default); wall-clock time is forbidden here — CI greps it out
(``scripts/check_monotonic.py``) because a stepped wall clock would smear
rates and percentiles across every window.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Callable, Mapping, Sequence

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_default_registry

#: Default rolling windows (label -> seconds), shortest first.
DEFAULT_WINDOWS: dict[str, float] = {"10s": 10.0, "1m": 60.0, "5m": 300.0}

#: Percentiles reported for histogram series in windows_payload().
WINDOW_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def parse_window(label: str) -> float:
    """``"10s"`` / ``"1m"`` / ``"5m"`` / ``"90"`` -> seconds (> 0)."""
    text = label.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        scale, text = 0.001, text[:-2]
    elif text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("h"):
        scale, text = 3600.0, text[:-1]
    try:
        seconds = float(text) * scale
    except ValueError:
        raise ValueError(f"bad window {label!r}; expected e.g. 10s, 1m, 5m") from None
    if seconds <= 0:
        raise ValueError(f"window {label!r} must be positive")
    return seconds


class Series:
    """Fixed-capacity ring of ``(t, value)`` samples for one metric.

    ``kind`` is ``"counter"`` / ``"gauge"`` / ``"histogram"``; histogram
    values are ``(bucket_counts, count, sum)`` tuples.  Single writer (the
    sampler), lock-free readers (``list(deque)`` is a consistent copy under
    the GIL).
    """

    __slots__ = ("kind", "bounds", "_ring")

    def __init__(self, kind: str, capacity: int, bounds: tuple[float, ...] = ()):
        self.kind = kind
        self.bounds = bounds
        self._ring: deque[tuple[float, Any]] = deque(maxlen=capacity)

    def append(self, t: float, value: Any) -> None:
        self._ring.append((t, value))

    def samples(self) -> list[tuple[float, Any]]:
        return list(self._ring)

    def window(self, seconds: float) -> "tuple[tuple[float, Any], tuple[float, Any]] | None":
        """The ``(reference, latest)`` sample pair spanning the window.

        The reference is the newest sample at least ``seconds`` older than
        the latest one (so the span covers the whole window), or the oldest
        sample when the series is younger than the window — the window
        degrades gracefully to "since sampling started".  ``None`` until two
        samples exist.
        """
        samples = self.samples()
        if len(samples) < 2:
            return None
        latest = samples[-1]
        cutoff = latest[0] - seconds
        reference = samples[0]
        for sample in reversed(samples[:-1]):
            if sample[0] <= cutoff:
                reference = sample
                break
        return reference, latest


def counter_window(series: Series, seconds: float) -> dict[str, float] | None:
    """Windowed ``{"delta", "rate"}`` of a counter series (reset-safe)."""
    pair = series.window(seconds)
    if pair is None:
        return None
    (t0, v0), (t1, v1) = pair
    span = t1 - t0
    if span <= 0:
        return None
    delta = max(0.0, float(v1) - float(v0))
    return {"delta": delta, "rate": delta / span}


def gauge_window(series: Series, seconds: float) -> dict[str, float] | None:
    """Windowed ``{"latest", "mean", "max"}`` of a gauge series."""
    samples = series.samples()
    if not samples:
        return None
    cutoff = samples[-1][0] - seconds
    values = [float(v) for t, v in samples if t >= cutoff]
    if not values:
        values = [float(samples[-1][1])]
    return {
        "latest": float(samples[-1][1]),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


def histogram_window(
    series: Series, seconds: float, quantiles: Sequence[tuple[str, float]] = WINDOW_QUANTILES
) -> dict[str, float] | None:
    """Windowed count/rate/percentiles from cumulative bucket-count deltas.

    Per-bucket deltas are clamped at zero so a registry reset inside the
    window cannot produce negative counts; quantiles interpolate inside the
    owning bucket exactly like the live histogram, except the overflow
    bucket answers the top finite bound (the windowed max is unknown).
    """
    pair = series.window(seconds)
    if pair is None:
        return None
    (t0, (counts0, count0, sum0)), (t1, (counts1, count1, sum1)) = pair
    span = t1 - t0
    if span <= 0:
        return None
    deltas = [max(0, b1 - b0) for b0, b1 in zip(counts0, counts1)]
    total = sum(deltas)
    result: dict[str, float] = {
        "count": float(total),
        "rate": total / span,
        "sum": max(0.0, sum1 - sum0),
    }
    for label, q in quantiles:
        result[label] = _delta_quantile(series.bounds, deltas, total, q)
    return result


def _delta_quantile(
    bounds: tuple[float, ...], deltas: Sequence[int], total: int, q: float
) -> float | None:
    # No observations in the window: no percentile, rather than a misleading
    # 0.0 (``repro top`` shows "-", the SLO engine treats it as no data).
    if total <= 0:
        return None
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(deltas):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            if index >= len(bounds):
                # Overflow bucket: no finite edge and no windowed max to
                # fall back on — answer the top finite bound (a floor).
                return bounds[-1] if bounds else 0.0
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (rank - cumulative) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        cumulative += bucket_count
    return bounds[-1] if bounds else 0.0  # pragma: no cover - total > 0 exits above


class TimeSeriesSampler:
    """Snapshots of a registry into rolling rings, one per :meth:`sample` call.

    Parameters
    ----------
    registry:
        The metrics registry to sample (process default when ``None``).
    interval:
        Expected seconds between samples (what the owner's tick runs at):
        sizes the rings and is the freshness bound of :meth:`ensure_fresh`.
    horizon:
        Seconds of history each ring retains (sets ring capacity; default
        covers the longest default window with slack).
    include:
        Optional dotted-name prefixes; empty samples every metric.
    clock:
        Monotonic seconds source (injectable for deterministic tests).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        interval: float = 1.0,
        horizon: float = 330.0,
        include: Sequence[str] = (),
        clock: Callable[[], float] = time.monotonic,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if horizon < interval:
            raise ValueError("horizon must cover at least one interval")
        self.registry = registry if registry is not None else get_default_registry()
        self.interval = interval
        self.horizon = horizon
        self.include = tuple(include)
        self._clock = clock
        self._capacity = max(2, math.ceil(horizon / interval) + 1)
        self._series: dict[str, Series] = {}
        self._samples_taken = 0
        self._last_sample: float | None = None
        self._sample_lock = threading.Lock()

    # ---------------------------------------------------------------- sampling
    def sample(self) -> float:
        """Take one sample of every selected metric; returns its timestamp."""
        with self._sample_lock:
            now = self._clock()
            previous = self._last_sample
            for name, metric in self.registry.items():
                if self.include and not name.startswith(self.include):
                    continue
                series = self._series.get(name)
                if isinstance(metric, Counter):
                    if series is None:
                        # A counter born between samples was implicitly zero
                        # at the previous sample: backfill that reference so
                        # its first burst (e.g. a tenant's first sheds) is a
                        # visible delta rather than a one-point series.
                        series = self._new_series(name, "counter")
                        if previous is not None:
                            series.append(previous, 0.0)
                    series.append(now, metric.value)
                elif isinstance(metric, Gauge):
                    if series is None:
                        series = self._new_series(name, "gauge")
                    series.append(now, metric.value)
                elif isinstance(metric, Histogram):
                    if series is None:
                        series = self._new_series(name, "histogram", metric.bounds)
                        if previous is not None:
                            zeros = tuple(0 for _ in range(len(metric.bounds) + 1))
                            series.append(previous, (zeros, 0, 0.0))
                    series.append(now, metric.bucket_counts())
            self._samples_taken += 1
            self._last_sample = now
            return now

    def _new_series(self, name: str, kind: str, bounds: tuple[float, ...] = ()) -> Series:
        series = Series(kind, self._capacity, bounds)
        self._series[name] = series
        return series

    def ensure_fresh(self, max_age: float | None = None) -> None:
        """Sample now unless one was taken within ``max_age`` (the interval).

        This is the on-demand path: a stats snapshot or an SLO evaluation
        triggered between the monitor's ticks still sees current data,
        without double-sampling when a tick just ran.
        """
        age_bound = self.interval if max_age is None else max_age
        last = self._last_sample
        if last is not None and self._clock() - last < age_bound:
            return
        self.sample()

    # ----------------------------------------------------------------- queries
    @property
    def samples_taken(self) -> int:
        return self._samples_taken

    def series(self, name: str) -> Series | None:
        return self._series.get(name)

    def names(self) -> list[str]:
        return sorted(self._series)

    def counter_rate(self, name: str, window: float) -> float | None:
        """Windowed per-second rate of one counter (``None`` = no data)."""
        series = self._series.get(name)
        if series is None or series.kind != "counter":
            return None
        stats = counter_window(series, window)
        return None if stats is None else stats["rate"]

    def counter_delta(self, name: str, window: float) -> float | None:
        series = self._series.get(name)
        if series is None or series.kind != "counter":
            return None
        stats = counter_window(series, window)
        return None if stats is None else stats["delta"]

    def gauge_stats(self, name: str, window: float) -> dict[str, float] | None:
        series = self._series.get(name)
        if series is None or series.kind != "gauge":
            return None
        return gauge_window(series, window)

    def quantile(self, name: str, q: float, window: float) -> float | None:
        """Windowed quantile of one histogram (``None`` = no data yet)."""
        series = self._series.get(name)
        if series is None or series.kind != "histogram":
            return None
        stats = histogram_window(series, window, (("q", q),))
        return None if stats is None else stats["q"]

    def histogram_stats(self, name: str, window: float) -> dict[str, float] | None:
        series = self._series.get(name)
        if series is None or series.kind != "histogram":
            return None
        return histogram_window(series, window)

    def windows_payload(
        self, windows: Mapping[str, float] | None = None, prefix: str = ""
    ) -> dict[str, Any]:
        """The JSON ``timeseries`` section of a stats snapshot.

        One entry per sampled metric with its per-window derived view —
        counters report delta/rate, gauges latest/mean/max, histograms
        count/rate and windowed percentiles.  Windows with no data yet are
        omitted, so a freshly started process reports a small payload that
        grows as history accumulates.
        """
        windows = dict(windows if windows is not None else DEFAULT_WINDOWS)
        series_payload: dict[str, Any] = {}
        for name in self.names():
            if prefix and not name.startswith(prefix):
                continue
            series = self._series[name]
            per_window: dict[str, Any] = {}
            for label, seconds in windows.items():
                if series.kind == "counter":
                    stats = counter_window(series, seconds)
                elif series.kind == "gauge":
                    stats = gauge_window(series, seconds)
                else:
                    stats = histogram_window(series, seconds)
                if stats is not None:
                    per_window[label] = {
                        key: None if value is None else round(value, 9)
                        for key, value in stats.items()
                    }
            if per_window:
                series_payload[name] = {"kind": series.kind, "windows": per_window}
        return {
            "interval": self.interval,
            "horizon": self.horizon,
            "samples": self._samples_taken,
            "windows": {label: seconds for label, seconds in windows.items()},
            "series": series_payload,
        }


__all__ = [
    "DEFAULT_WINDOWS",
    "Series",
    "TimeSeriesSampler",
    "WINDOW_QUANTILES",
    "counter_window",
    "gauge_window",
    "histogram_window",
    "parse_window",
]
