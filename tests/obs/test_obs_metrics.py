"""Tests for the dependency-free metrics core (repro.obs.metrics)."""

import threading

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import LATENCY_BUCKETS, SIZE_BUCKETS, get_default_registry


# -------------------------------------------------------------------- counters
def test_counter_increments_and_rejects_negative():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_is_thread_safe_under_concurrent_increments():
    counter = Counter("c")
    n_threads, per_thread = 8, 2_000

    def spin():
        for _ in range(per_thread):
            counter.inc()

    threads = [threading.Thread(target=spin) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == n_threads * per_thread


# ---------------------------------------------------------------------- gauges
def test_gauge_tracks_value_and_high_water():
    gauge = Gauge("g")
    gauge.inc(3)
    gauge.inc(2)
    gauge.dec(4)
    assert gauge.value == 1
    assert gauge.high_water == 5
    gauge.set(0.5)
    assert gauge.value == 0.5
    assert gauge.high_water == 5  # high water never goes down


# ------------------------------------------------------------------ histograms
def test_histogram_counts_sum_min_max():
    histogram = Histogram("h", bounds=(1, 2, 4))
    for value in (0.5, 1.5, 3.0, 10.0):
        histogram.observe(value)
    payload = histogram.to_payload()
    assert payload["count"] == 4
    assert payload["sum"] == pytest.approx(15.0)
    assert payload["min"] == 0.5
    assert payload["max"] == 10.0
    # One observation per bucket, including the overflow bucket.
    assert payload["buckets"] == {"le_1": 1, "le_2": 1, "le_4": 1, "le_inf": 1}


def test_histogram_percentiles_are_ordered_and_bounded():
    histogram = Histogram("h")  # default latency buckets
    samples = [0.001 * i for i in range(1, 101)]  # 1ms .. 100ms
    for value in samples:
        histogram.observe(value)
    p50, p95, p99 = (histogram.quantile(q) for q in (0.50, 0.95, 0.99))
    assert min(samples) <= p50 <= p95 <= p99 <= max(samples)
    # Bucket interpolation keeps the estimate within one bucket of truth.
    assert p50 == pytest.approx(0.050, abs=0.025)
    assert p99 == pytest.approx(0.099, abs=0.15)


def test_histogram_empty_and_invalid_quantiles():
    histogram = Histogram("h")
    assert histogram.quantile(0.99) == 0.0
    payload = histogram.to_payload()
    assert payload["count"] == 0 and payload["buckets"] == {}
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    with pytest.raises(ValueError):
        Histogram("h", bounds=())
    with pytest.raises(ValueError):
        Histogram("h", bounds=(2, 1))


def test_histogram_overflow_bucket_and_quantiles_beyond_top_bound():
    # Regression: observations past the last bound (default latency buckets
    # top out at 10s) used to vanish from the bucket payload and collapse
    # high quantiles onto the top edge.  They now land in an explicit
    # ``le_inf`` bucket and overflow quantiles answer the observed max.
    histogram = Histogram("h")  # default LATENCY_BUCKETS, top bound 10.0
    for value in (0.5, 11.0, 12.5, 30.0):
        histogram.observe(value)
    payload = histogram.to_payload()
    assert payload["buckets"]["le_inf"] == 3
    assert sum(payload["buckets"].values()) == payload["count"] == 4
    assert histogram.quantile(0.99) == 30.0  # observed max, not the 10s edge
    assert histogram.quantile(0.9) == 30.0
    assert histogram.quantile(0.1) <= 10.0


def test_histogram_single_value_percentiles_do_not_invent_spread():
    histogram = Histogram("h")
    for _ in range(10):
        histogram.observe(0.003)
    # All mass at one point: every percentile is that point, not a bucket edge.
    assert histogram.quantile(0.5) == pytest.approx(0.003)
    assert histogram.quantile(0.99) == pytest.approx(0.003)


# ------------------------------------------------------------------- registry
def test_registry_creates_on_first_use_and_snapshots():
    registry = MetricsRegistry()
    registry.counter("a.b").inc(2)
    registry.gauge("a.g").set(7)
    registry.histogram("a.h", SIZE_BUCKETS).observe(3)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a.b": 2}
    assert snapshot["gauges"]["a.g"]["value"] == 7
    assert snapshot["histograms"]["a.h"]["count"] == 1
    for key in ("p50", "p95", "p99"):
        assert key in snapshot["histograms"]["a.h"]


def test_registry_prefix_filter_and_reset():
    registry = MetricsRegistry()
    requests = registry.counter("batcher.requests")
    requests.inc()
    registry.counter("cache.hits").inc()
    snapshot = registry.snapshot("batcher")
    assert list(snapshot["counters"]) == ["batcher.requests"]
    # Reset zeroes IN PLACE: components cache their metric handles at
    # construction, so the handles must stay registered and live.
    registry.reset()
    assert registry.snapshot()["counters"] == {"batcher.requests": 0, "cache.hits": 0}
    assert registry.counter("batcher.requests") is requests
    requests.inc(3)
    assert registry.snapshot()["counters"]["batcher.requests"] == 3


def test_reset_keeps_gauge_levels_and_zeroes_histograms_in_place():
    registry = MetricsRegistry()
    gauge = registry.gauge("router.inflight")
    gauge.inc(5)
    gauge.dec(2)
    hist = registry.histogram("lat", (1, 2))
    hist.observe(0.5)
    hist.observe(10.0)
    registry.reset()
    # A gauge is a level its owner decs as work ends: the reset keeps the
    # value and restarts the high-water mark from it.
    assert gauge.value == 3 and gauge.high_water == 3
    gauge.dec(3)
    assert gauge.value == 0 and gauge.high_water == 3
    payload = hist.to_payload()
    assert payload["count"] == 0 and payload["buckets"] == {}
    assert hist.quantile(0.99) == 0.0
    # Metrics keep working after the reset.
    hist.observe(1.5)
    assert hist.to_payload()["count"] == 1


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_registry_same_name_returns_same_metric_across_threads():
    registry = MetricsRegistry()
    n_threads, per_thread = 8, 500

    def spin():
        for _ in range(per_thread):
            registry.counter("shared").inc()

    threads = [threading.Thread(target=spin) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.counter("shared").value == n_threads * per_thread


def test_default_registry_is_process_wide():
    assert get_default_registry() is get_default_registry()


def test_default_buckets_are_sorted():
    assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
    assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)
