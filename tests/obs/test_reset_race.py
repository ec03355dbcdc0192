"""Satellite: registry reset racing observers, scrapers and the sampler.

``MetricsRegistry.reset()`` zeroes metrics in place while request threads
keep observing and exporters keep scraping.  Nothing here may crash, no
scrape may see a torn histogram (bucket sum exceeding the total count),
and the rolling time-series must never answer a negative rate or delta
across the reset.
"""

import threading

from repro.obs import MetricsRegistry, render_prometheus
from repro.obs.timeseries import TimeSeriesSampler, counter_window, histogram_window


def _run_race(work, seconds=0.5, threads=4):
    """Run ``work(stop_event)`` on N threads; surface their exceptions."""
    stop = threading.Event()
    errors = []

    def wrap():
        try:
            work(stop)
        except Exception as exc:  # pragma: no cover - the failure signal
            errors.append(exc)

    workers = [threading.Thread(target=wrap) for _ in range(threads)]
    for worker in workers:
        worker.start()
    timer = threading.Timer(seconds, stop.set)
    timer.start()
    stop.wait(seconds + 5)
    for worker in workers:
        worker.join(10)
    timer.cancel()
    assert not errors, errors


def test_reset_racing_observes_and_scrapes_never_tears():
    registry = MetricsRegistry()
    latency = registry.histogram("latency")
    counter = registry.counter("requests")

    def work(stop):
        while not stop.is_set():
            for _ in range(50):
                latency.observe(0.01)
                counter.inc()
            # Scrape mid-flight: a torn histogram would have bucket counts
            # exceeding the cumulative total.
            counts, total, total_sum = latency.bucket_counts()
            assert sum(1 for c in counts if c < 0) == 0
            assert total >= 0 and total_sum >= -1e-9
            assert counts[-1] <= total  # cumulative-ish sanity: no tearing
            render_prometheus(registry.snapshot())
            registry.reset()

    _run_race(work)


def test_timeseries_rates_stay_nonnegative_across_reset():
    registry = MetricsRegistry()
    counter = registry.counter("requests")
    latency = registry.histogram("latency")
    sampler = TimeSeriesSampler(registry, interval=0.001)
    stop = threading.Event()

    def traffic():
        while not stop.is_set():
            counter.inc()
            latency.observe(0.01)

    def resetter():
        while not stop.is_set():
            registry.reset()

    threads = [
        threading.Thread(target=traffic),
        threading.Thread(target=resetter),
    ]
    for thread in threads:
        thread.start()
    try:
        for _ in range(300):
            sampler.sample()
            for window in (0.05, 1.0, 10.0):
                counts = counter_window(sampler.series("requests"), window)
                assert counts is None or counts["rate"] >= 0.0
                delta = sampler.counter_delta("requests", window)
                assert delta is None or delta >= 0.0
                stats = histogram_window(sampler.series("latency"), window)
                if stats is not None:
                    assert stats["count"] >= 0.0
                    assert stats["rate"] >= 0.0
                    assert stats["sum"] >= 0.0
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)


def test_snapshot_payload_stays_json_safe_across_reset():
    import json

    registry = MetricsRegistry()
    counter = registry.counter("requests")
    sampler = TimeSeriesSampler(registry, interval=0.001)

    def work(stop):
        while not stop.is_set():
            counter.inc(10)
            sampler.sample()
            json.dumps(sampler.windows_payload())
            registry.reset()

    _run_race(work, threads=2)
