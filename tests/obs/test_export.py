"""Prometheus exposition tests: renderer structure, real-parser round trip,
and the stats port's HTTP endpoints (/metrics, /, HEAD, 400 for anything else).

Acceptance criterion: the ``--stats-port`` side channel serves text the
reference ``prometheus_client`` parser accepts — verified when that package
is installed (CI), skipped locally (it is NOT a runtime dependency).
"""

import json
import socket

import pytest

from repro.api import Client, TransformationSpec
from repro.obs import (
    ExemplarStore,
    MetricsRegistry,
    get_default_exemplars,
    render_prometheus,
    serve_stats_in_thread,
)

SPEC = TransformationSpec(value="19990415", examples=[["20000101", "2000-01-01"]])


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("batcher.requests").inc(5)
    registry.gauge("engine.inflight").set(3)
    hist = registry.histogram("batcher.queue_wait", (0.5, 1.0))
    for value in (0.2, 0.7, 12.5):
        hist.observe(value)
    return registry


# ------------------------------------------------------------------ renderer
def test_render_prometheus_families_and_values():
    text = render_prometheus(_sample_registry().snapshot())
    lines = text.splitlines()
    assert "# TYPE repro_batcher_requests counter" in lines
    assert "repro_batcher_requests_total 5" in lines
    assert "# TYPE repro_engine_inflight gauge" in lines
    assert "repro_engine_inflight 3" in lines
    assert "repro_engine_inflight_high_water 3" in lines
    # Histogram buckets are cumulative and end at +Inf == count.
    assert 'repro_batcher_queue_wait_bucket{le="0.5"} 1' in lines
    assert 'repro_batcher_queue_wait_bucket{le="1"} 2' in lines
    assert 'repro_batcher_queue_wait_bucket{le="+Inf"} 3' in lines
    assert "repro_batcher_queue_wait_count 3" in lines
    assert text.endswith("\n")


def test_render_prometheus_sanitizes_names_and_prefix():
    registry = MetricsRegistry()
    registry.counter("router.routed.worker-00").inc()
    text = render_prometheus(registry.snapshot(), prefix="x_")
    assert "x_router_routed_worker_00_total 1" in text


def test_render_prometheus_exemplar_comments():
    registry = _sample_registry()
    text = render_prometheus(
        registry.snapshot(),
        exemplars={"batcher.queue_wait": "ab" * 8, "missing.metric": "cd" * 8},
    )
    assert f'# exemplar repro_batcher_queue_wait trace_id="{"ab" * 8}"' in text
    assert "cd" * 8 not in text  # exemplars without a live family are dropped


def test_exemplar_store_keeps_latest_and_ignores_none():
    store = ExemplarStore()
    store.note("a", "11" * 8)
    store.note("a", "22" * 8)
    store.note("b", None)
    assert store.snapshot() == {"a": "22" * 8}
    store.clear()
    assert store.snapshot() == {}


def test_default_exemplars_populated_by_serving_traffic():
    get_default_exemplars().clear()
    from repro.obs import Trace

    with Client.local(seed=0) as client:
        with Trace.start() as trace:
            client.submit_many([SPEC])
    snapshot = get_default_exemplars().snapshot()
    assert snapshot.get("service.batch_latency") == trace.trace_id
    assert any(name.startswith("engine.task_latency.") for name in snapshot)


def test_render_parses_with_reference_prometheus_client():
    parser = pytest.importorskip(
        "prometheus_client.parser", reason="CI-only exposition validator"
    )
    registry = _sample_registry()
    text = render_prometheus(
        registry.snapshot(), exemplars={"batcher.requests": "ab" * 8}
    )
    families = {f.name: f for f in parser.text_string_to_metric_families(text)}
    assert families["repro_batcher_requests"].type == "counter"
    assert families["repro_batcher_requests"].samples[0].value == 5.0
    hist = families["repro_batcher_queue_wait"]
    assert hist.type == "histogram"
    samples = {(s.name, s.labels.get("le")): s.value for s in hist.samples}
    assert samples[("repro_batcher_queue_wait_bucket", "+Inf")] == 3.0
    assert samples[("repro_batcher_queue_wait_count", None)] == 3.0


# ---------------------------------------------------------------- stats port
@pytest.fixture
def live_stats_port():
    from repro.serving import build_service

    service = build_service(seed=0)
    service.handle_batch(
        [{"v": 2, "id": 0, "task": SPEC.to_request() | {"type": "transformation"}}]
    )
    stats = serve_stats_in_thread(service.stats_snapshot, "127.0.0.1", 0)
    assert stats is not None
    yield stats.port
    stats.close()
    service.close()


def _http_get(port: int, path: str, method: str = "GET") -> tuple[str, str]:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(f"{method} {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
        raw = b""
        while chunk := conn.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.decode(), body.decode()


def test_stats_port_serves_prometheus_on_metrics_path(live_stats_port):
    head, body = _http_get(live_stats_port, "/metrics")
    assert head.startswith("HTTP/1.0 200")
    assert "text/plain; version=0.0.4" in head
    assert "repro_batcher_requests_total" in body
    assert 'le="+Inf"' in body


def test_stats_port_metrics_parse_with_reference_client(live_stats_port):
    parser = pytest.importorskip(
        "prometheus_client.parser", reason="CI-only exposition validator"
    )
    _, body = _http_get(live_stats_port, "/metrics")
    families = list(parser.text_string_to_metric_families(body))
    names = {f.name for f in families}
    assert any(n.startswith("repro_batcher") for n in names)
    assert any(f.type == "histogram" for f in families)


def test_stats_port_serves_json_on_other_paths(live_stats_port):
    head, body = _http_get(live_stats_port, "/")
    assert head.startswith("HTTP/1.0 200")
    assert "application/json" in head
    payload = json.loads(body)
    assert "metrics" in payload and "service" in payload


def test_stats_port_head_request_omits_the_body(live_stats_port):
    head, body = _http_get(live_stats_port, "/metrics", method="HEAD")
    assert head.startswith("HTTP/1.0 200")
    assert body == ""


@pytest.mark.parametrize(
    "opening", [b"", b'{"type": "stats"}\n'], ids=["silent", "not-http"]
)
def test_stats_port_answers_400_to_a_client_that_does_not_speak_http(
    live_stats_port, opening
):
    # HTTP is the port's only dialect: a silent client (the old one-JSON-line
    # read) and a non-HTTP first line both get 400 and a close.
    with socket.create_connection(("127.0.0.1", live_stats_port), timeout=10) as conn:
        conn.sendall(opening)
        raw = b""
        while chunk := conn.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 400")
    assert "HTTP" in json.loads(body)["error"]


# ----------------------------------------------------------------------- CLI
def test_cli_stats_format_prom_over_stats_port(live_stats_port, capsys):
    from repro.__main__ import main

    assert (
        main(["stats", "--stats-port", str(live_stats_port), "--format", "prom"]) == 0
    )
    out = capsys.readouterr().out
    assert "repro_batcher_requests_total" in out
    assert 'le="+Inf"' in out


def test_cli_stats_format_prom_renders_local_snapshot(capsys, wire_server):
    from repro.__main__ import main
    from repro.serving import build_service

    service = build_service(seed=0)
    service.handle_batch(
        [{"v": 2, "id": 0, "task": SPEC.to_request() | {"type": "transformation"}}]
    )
    port = wire_server(service.handle_batch)
    assert main(["stats", "--port", str(port), "--format", "prom"]) == 0
    out = capsys.readouterr().out
    assert "repro_batcher_requests_total" in out
