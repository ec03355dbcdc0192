"""Probe and diagnostics tests: /healthz, /readyz, /doctor, HealthMonitor.

Tentpole acceptance: the stats side channel answers liveness and readiness
over plain HTTP (503 while a page-severity alert fires or admission is
saturated — no JSON parsing needed by supervisors), and the one-shot
diagnostic bundle carries config, alerts, rolling windows, recent events
and thread stacks even while the service is degraded.
"""

import json
import threading

import pytest

from repro.obs import EventLog, MetricsRegistry, serve_stats_in_thread
from repro.obs.diagnostics import build_bundle, thread_stacks
from repro.obs.slo import HealthMonitor, SLOSpec
from repro.cli.fetch import StatsUnreachable, fetch_probe, http_get


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def breach_shed(registry, monitor, clock, *, severity="page"):
    """Drive tenant.acme shed counters until the configured SLO fires."""
    admitted = registry.counter("tenant.acme.admitted")
    limited = registry.counter("tenant.acme.rate_limited")
    for _ in range(12):
        admitted.inc(10)
        limited.inc(90)
        clock.advance(1.0)
        monitor.tick()


def make_monitor(**kwargs):
    registry = MetricsRegistry()
    clock = FakeClock()
    slos = kwargs.pop(
        "slos",
        [
            SLOSpec(
                name="shed",
                kind="error_rate",
                tenant="acme",
                budget=0.1,
                windows=("10s",),
                severity=kwargs.pop("severity", "page"),
            )
        ],
    )
    monitor = HealthMonitor(registry=registry, slos=slos, clock=clock, **kwargs)
    return monitor, registry, clock


# -------------------------------------------------------------- health monitor
def test_ready_flips_on_page_alert_and_recovers():
    monitor, registry, clock = make_monitor()
    clock.advance(1.0)
    monitor.tick()
    ok, detail = monitor.ready()
    assert ok and detail["reasons"] == []

    breach_shed(registry, monitor, clock)
    ok, detail = monitor.ready()
    assert not ok
    assert any("page alert firing" in reason for reason in detail["reasons"])

    # Quiet traffic ages the breach out of the window.
    admitted = registry.counter("tenant.acme.admitted")
    for _ in range(15):
        admitted.inc(100)
        clock.advance(1.0)
        monitor.tick()
    ok, detail = monitor.ready()
    assert ok and detail["reasons"] == []


def test_ticket_severity_does_not_flip_readiness():
    monitor, registry, clock = make_monitor(severity="ticket")
    breach_shed(registry, monitor, clock)
    assert monitor.engine.alerts()  # firing...
    ok, _ = monitor.ready()
    assert ok  # ...but only pages gate readiness


def test_dead_workers_flip_readiness():
    monitor, registry, clock = make_monitor(
        slos=[], workers_alive=lambda: (1, 4)
    )
    clock.advance(1.0)
    monitor.tick()
    ok, detail = monitor.ready()
    assert not ok
    assert any("workers dead" in reason for reason in detail["reasons"])


def test_sections_merge_into_snapshots():
    monitor, registry, clock = make_monitor()
    breach_shed(registry, monitor, clock)
    sections = monitor.sections()
    assert sections["health"]["status"] == "degraded"
    assert sections["health"]["ready"] is False
    assert [a["slo"] for a in sections["alerts"]] == ["shed"]
    assert "shed" in sections["slos"]
    assert "tenant.acme.rate_limited" in sections["timeseries"]["series"]


# ----------------------------------------------------------------- HTTP routes
@pytest.fixture()
def degraded_port():
    """A stats server whose monitor has a firing page alert."""
    monitor, registry, clock = make_monitor()
    breach_shed(registry, monitor, clock)
    log = EventLog(capacity=16)
    log.emit("span", name="x")

    def snapshot():
        return {"metrics": registry.snapshot(), **monitor.sections()}

    def doctor():
        return build_bundle(
            snapshot_fn=snapshot,
            monitor=monitor,
            config={"command": "test"},
            event_log=log,
        )

    stats = serve_stats_in_thread(
        snapshot, "127.0.0.1", 0, monitor=monitor, doctor_fn=doctor
    )
    assert stats is not None
    yield stats.port
    stats.close()


def test_healthz_is_200_even_when_degraded(degraded_port):
    status, payload = fetch_probe("127.0.0.1", degraded_port, "/healthz")
    assert status == 200
    assert payload["alerts_firing"] == 1


def test_readyz_answers_503_with_reasons(degraded_port):
    status, payload = fetch_probe("127.0.0.1", degraded_port, "/readyz")
    assert status == 503
    assert payload["ready"] is False
    assert any("page alert" in reason for reason in payload["reasons"])


def test_doctor_route_serves_the_bundle(degraded_port):
    status, bundle = fetch_probe("127.0.0.1", degraded_port, "/doctor")
    assert status == 200
    assert bundle["bundle"] == "repro-doctor"
    assert bundle["config"] == {"command": "test"}
    assert [a["slo"] for a in bundle["alerts"]] == ["shed"]
    assert bundle["timeseries"]["series"]
    assert [e["kind"] for e in bundle["events"]] == ["span"]
    assert "Thread" in bundle["thread_stacks"]


def test_default_routes_without_monitor_stay_compatible():
    registry = MetricsRegistry()
    stats = serve_stats_in_thread(lambda: {"metrics": registry.snapshot()}, "127.0.0.1", 0)
    try:
        status, payload = fetch_probe("127.0.0.1", stats.port, "/healthz")
        assert (status, payload) == (200, {"status": "ok"})
        status, payload = fetch_probe("127.0.0.1", stats.port, "/readyz")
        assert (status, payload) == (200, {"ready": True})
    finally:
        stats.close()


def test_unreachable_probe_raises(tmp_path):
    with pytest.raises(StatsUnreachable):
        http_get("127.0.0.1", 1, "/healthz", timeout=0.2)


def test_closing_the_stats_handle_stops_its_thread_and_its_port():
    stats = serve_stats_in_thread(lambda: {}, "127.0.0.1", 0)
    assert fetch_probe("127.0.0.1", stats.port, "/healthz")[0] == 200
    stats.close()
    stats.close()  # idempotent
    assert not stats.thread.is_alive()
    with pytest.raises(StatsUnreachable):
        http_get("127.0.0.1", stats.port, "/healthz", timeout=0.2)


def test_a_stats_port_that_cannot_bind_gives_none_and_leaves_no_thread():
    stats = serve_stats_in_thread(lambda: {}, "127.0.0.1", 0)
    try:
        assert serve_stats_in_thread(lambda: {}, "127.0.0.1", stats.port) is None
        others = [
            thread
            for thread in threading.enumerate()
            if thread.name == "repro-stats" and thread is not stats.thread
        ]
        for thread in others:
            thread.join(5)
        assert not any(thread.is_alive() for thread in others)
    finally:
        stats.close()


# ----------------------------------------------------------------- diagnostics
def test_thread_stacks_mention_this_thread():
    stacks = thread_stacks()
    assert "test_thread_stacks_mention_this_thread" in stacks


def test_bundle_survives_broken_sections():
    def explode():
        raise RuntimeError("snapshot down")

    bundle = build_bundle(snapshot_fn=explode)
    assert bundle["bundle"] == "repro-doctor"
    assert "snapshot" in bundle["errors"]
    json.dumps(bundle)  # still JSON-able


def test_bundle_tails_events():
    log = EventLog(capacity=600)
    for index in range(500):
        log.emit("tick", index=index)
    bundle = build_bundle(event_log=log, max_events=100)
    events = bundle["events"]
    assert len(events) == 100
    assert events[-1]["index"] == 499


# ------------------------------------------------------------- client surfaces
def test_client_health_and_alerts_on_local_service():
    from repro.api import Client

    with Client.local(seed=0) as client:
        health = client.health()
        assert health["status"] in ("ok", "degraded")
        assert isinstance(client.alerts(), list)
