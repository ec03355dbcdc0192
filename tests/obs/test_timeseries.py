"""Rolling time-series tests: windows, rates, quantiles, reset safety.

Tentpole acceptance: the sampler turns cumulative counters/gauges/histogram
buckets into per-window deltas, rates and percentiles without locks on the
read path, never answers negative rates (even across a registry reset), and
its payload renders every window the SLO engine and ``repro top`` consume.
"""


import pytest

from repro.obs import MetricsRegistry
from repro.obs.timeseries import (
    DEFAULT_WINDOWS,
    Series,
    TimeSeriesSampler,
    counter_window,
    gauge_window,
    histogram_window,
    parse_window,
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_sampler(registry, **kwargs):
    clock = FakeClock()
    sampler = TimeSeriesSampler(registry, clock=clock, **kwargs)
    return sampler, clock


# --------------------------------------------------------------- parse_window
@pytest.mark.parametrize(
    ("label", "seconds"),
    [("10s", 10.0), ("1m", 60.0), ("5m", 300.0), ("500ms", 0.5), ("2h", 7200.0)],
)
def test_parse_window(label, seconds):
    assert parse_window(label) == seconds


@pytest.mark.parametrize("label", ["", "tens", "-5s", "0s", "10x"])
def test_parse_window_rejects_garbage(label):
    with pytest.raises(ValueError):
        parse_window(label)


# -------------------------------------------------------------------- counters
def test_counter_rate_and_delta():
    registry = MetricsRegistry()
    requests = registry.counter("service.requests")
    sampler, clock = make_sampler(registry)

    sampler.sample()
    for _ in range(3):
        clock.advance(1.0)
        requests.inc(10)
        sampler.sample()

    assert sampler.counter_delta("service.requests", 10.0) == 30.0
    assert sampler.counter_rate("service.requests", 10.0) == pytest.approx(10.0)
    stats = counter_window(sampler.series("service.requests"), 10.0)
    assert stats == {"delta": 30.0, "rate": pytest.approx(10.0)}


def test_counter_needs_two_samples():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    sampler, _ = make_sampler(registry)
    assert sampler.counter_rate("c", 10.0) is None
    sampler.sample()
    assert sampler.counter_rate("c", 10.0) is None  # one point: no delta yet


def test_counter_rate_never_negative_after_reset():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    sampler, clock = make_sampler(registry)

    counter.inc(100)
    sampler.sample()
    clock.advance(1.0)
    registry.reset()  # cumulative value drops 100 -> 0
    counter.inc(1)
    sampler.sample()

    rate = sampler.counter_rate("c", 10.0)
    assert rate is not None and rate >= 0.0


# ---------------------------------------------------------------------- gauges
def test_gauge_window_latest_mean_max():
    registry = MetricsRegistry()
    pending = registry.gauge("pending")
    sampler, clock = make_sampler(registry)

    for value in (2.0, 8.0, 5.0):
        pending.set(value)
        sampler.sample()
        clock.advance(1.0)

    stats = gauge_window(sampler.series("pending"), 10.0)
    assert stats["latest"] == 5.0
    assert stats["max"] == 8.0
    assert stats["mean"] == pytest.approx(5.0)
    assert sampler.gauge_stats("pending", 10.0) == stats


# ------------------------------------------------------------------ histograms
def test_histogram_windowed_quantiles_and_rate():
    registry = MetricsRegistry()
    latency = registry.histogram("latency", bounds=(0.01, 0.1, 1.0))
    sampler, clock = make_sampler(registry)

    # Old traffic that must NOT pollute the window: all slow.
    for _ in range(50):
        latency.observe(0.5)
    sampler.sample()
    # Idle ticks age the slow traffic out of the 10s window.
    for _ in range(12):
        clock.advance(1.0)
        sampler.sample()

    # Window traffic: all fast.
    for _ in range(100):
        latency.observe(0.005)
    clock.advance(1.0)
    sampler.sample()

    p99 = sampler.quantile("latency", 0.99, 10.0)
    # Interpolated inside the fast bucket [0, 0.01] — not the stale 1.0.
    assert p99 is not None and 0.005 < p99 <= 0.01

    stats = sampler.histogram_stats("latency", 10.0)
    assert stats["count"] == 100.0
    assert stats["rate"] == pytest.approx(10.0)  # 100 obs over a 10s span
    assert stats["p50"] is not None and 0.0 < stats["p50"] <= 0.01
    window = histogram_window(sampler.series("latency"), 10.0)
    assert window == stats


def test_histogram_overflow_bucket_answers_top_bound():
    registry = MetricsRegistry()
    latency = registry.histogram("latency", bounds=(0.01, 0.1))
    sampler, clock = make_sampler(registry)

    sampler.sample()
    for _ in range(10):
        latency.observe(5.0)  # beyond every finite bucket
    clock.advance(1.0)
    sampler.sample()

    assert sampler.quantile("latency", 0.99, 10.0) == pytest.approx(0.1)


def test_histogram_empty_window_has_no_quantiles():
    registry = MetricsRegistry()
    registry.histogram("latency")
    sampler, clock = make_sampler(registry)
    sampler.sample()
    clock.advance(1.0)
    sampler.sample()
    assert sampler.quantile("latency", 0.99, 10.0) is None


# -------------------------------------------------------------------- sampler
def test_horizon_bounds_memory():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    sampler, clock = make_sampler(registry, interval=1.0, horizon=10.0)
    for _ in range(100):
        counter.inc()
        sampler.sample()
        clock.advance(1.0)
    series = sampler.series("c")
    assert isinstance(series, Series)
    assert len(series.samples()) <= 11  # horizon / interval + 1


def test_include_filters_series():
    registry = MetricsRegistry()
    registry.counter("tenant.a.admitted").inc()
    registry.counter("service.requests").inc()
    sampler, _ = make_sampler(registry, include=("tenant.",))
    sampler.sample()
    assert sampler.names() == ["tenant.a.admitted"]


def test_new_metrics_are_picked_up_mid_flight():
    registry = MetricsRegistry()
    sampler, clock = make_sampler(registry)
    sampler.sample()
    late = registry.counter("late")
    late.inc(5)
    clock.advance(1.0)
    sampler.sample()
    late.inc(5)
    clock.advance(1.0)
    sampler.sample()
    # The birth burst counts too: a counter born between samples gets a
    # zero reference backfilled at the previous sample time.
    assert sampler.counter_delta("late", 10.0) == 10.0


def test_ensure_fresh_samples_at_most_once_per_interval():
    registry = MetricsRegistry()
    registry.counter("c")
    sampler, clock = make_sampler(registry, interval=1.0)
    sampler.ensure_fresh()
    sampler.ensure_fresh()  # same instant: no second sample
    assert sampler.samples_taken == 1
    clock.advance(1.5)
    sampler.ensure_fresh()
    assert sampler.samples_taken == 2


def test_windows_payload_shape():
    registry = MetricsRegistry()
    registry.counter("service.requests").inc(5)
    registry.gauge("pending").set(2)
    registry.histogram("latency").observe(0.02)
    sampler, clock = make_sampler(registry)
    sampler.sample()
    clock.advance(1.0)
    registry.counter("service.requests").inc(5)
    sampler.sample()

    payload = sampler.windows_payload()
    assert set(payload["windows"]) == set(DEFAULT_WINDOWS)
    series = payload["series"]
    assert series["service.requests"]["kind"] == "counter"
    ten_s = series["service.requests"]["windows"]["10s"]
    assert ten_s["delta"] == 5.0
    assert series["pending"]["kind"] == "gauge"
    assert series["latency"]["kind"] == "histogram"
    # JSON-safe: everything renders.
    import json

    json.dumps(payload)
