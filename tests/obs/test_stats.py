"""The stats surface: wire type, Client.stats(), cluster snapshot, CLI.

Acceptance criterion of the observability PR: after a mixed cluster
workload, a ``Client.stats()`` snapshot shows nonzero batcher / cache /
router counters with histogram percentiles.
"""

import json
import sys

import pytest

from repro.api import Client, StatsSpec, TransformationSpec
from repro.serving import build_service

SPEC = TransformationSpec(value="19990415", examples=[["20000101", "2000-01-01"]])


def _mixed_specs():
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent.parent / "cluster"))
    from cluster_testing import make_mixed_specs

    return make_mixed_specs()


# ------------------------------------------------------------------- wire type
def test_stats_spec_round_trips_and_refuses_to_task():
    from repro.api import spec_from_request

    spec = spec_from_request({"type": "stats", "prefix": "batcher"})
    assert isinstance(spec, StatsSpec) and spec.prefix == "batcher"
    with pytest.raises(ValueError):
        spec.to_task()


def test_stats_request_over_the_raw_line_protocol():
    service = build_service(seed=0)
    service.handle_batch([{"v": 2, "id": 0, "task": SPEC.to_request() | {"type": "transformation"}}])
    response = service.handle_batch([{"v": 2, "id": 1, "task": {"type": "stats"}}])[0]
    assert response["ok"] is True
    answer = response["result"]["answer"]
    assert answer["service"]["requests_served"] >= 1
    assert "counters" in answer["metrics"]


# ---------------------------------------------------------------- local client
def test_local_client_stats_shows_engine_and_batcher_activity():
    with Client.local(seed=0) as client:
        client.submit_many([SPEC, SPEC])
        snapshot = client.stats()
    counters = snapshot["metrics"]["counters"]
    assert counters.get("batcher.requests", 0) > 0
    assert counters.get("batcher.batches", 0) > 0
    histograms = snapshot["metrics"]["histograms"]
    assert histograms["service.batch_latency"]["count"] > 0  # engine batches ran
    assert "batcher.queue_wait" in histograms
    for key in ("p50", "p95", "p99"):
        assert histograms["batcher.queue_wait"][key] >= 0


def test_client_stats_reset_zeroes_the_next_snapshot():
    with Client.local(seed=0) as client:
        client.submit_many([SPEC, SPEC])
        before = client.stats(reset=True)
        assert before["metrics"]["counters"].get("batcher.requests", 0) > 0
        after = client.stats()
    counters = after["metrics"]["counters"]
    # The reset zeroed the registry *after* the first snapshot was taken, so
    # the second one reports only what happened since (nothing engine-side).
    assert counters.get("batcher.requests", 0) == 0
    assert after["metrics"]["histograms"]["service.batch_latency"]["count"] == 0


def test_stats_prefix_filters_the_metrics_section():
    with Client.local(seed=0) as client:
        client.submit(SPEC)
        snapshot = client.stats(prefix="batcher")
    names = (
        list(snapshot["metrics"]["counters"])
        + list(snapshot["metrics"]["gauges"])
        + list(snapshot["metrics"]["histograms"])
    )
    assert names and all(name.startswith("batcher") for name in names)


# --------------------------------------------------------------------- remote
def test_remote_client_stats_matches_local_shape(wire_server):
    service = build_service(seed=0, batch_size=4, workers=4)
    with Client.remote("127.0.0.1", wire_server(service.handle_batch)) as client:
        client.submit(SPEC)
        snapshot = client.stats()
    assert snapshot["service"]["requests_served"] >= 1
    assert "counters" in snapshot["metrics"]


# --------------------------------------------------------------------- cluster
def test_cluster_stats_shows_batcher_cache_router_counters():
    specs = _mixed_specs()
    with Client.cluster(workers=3, seed=0) as client:
        results = client.submit_many(specs)
        assert all(result.error is None for result in results)
        # Repeat once so the worker caches see hits.
        client.submit_many(specs)
        snapshot = client.stats()

    assert snapshot["cluster"]["routed"] >= len(specs)
    assert snapshot["cluster"]["alive_workers"] == 3
    counters = snapshot["metrics"]["counters"]
    assert counters.get("batcher.requests", 0) > 0, "batcher counters missing"
    assert counters.get("cache.hits", 0) > 0, "cache counters missing"
    routed = {
        name: value
        for name, value in counters.items()
        if name.startswith("router.routed.")
    }
    assert routed and sum(routed.values()) >= len(specs), "router counters missing"
    # Every dispatched batch carried at least one prompt.
    assert counters["batcher.requests"] >= counters["batcher.batches"] >= 1
    # The snapshot is plain JSON end to end.
    json.dumps(snapshot)


def test_router_answers_stats_specs_itself():
    from repro.cluster.router import Router

    with Client.cluster(router=Router.local(2, seed=0)) as client:
        result = client.submit_many([StatsSpec()])[0]
        assert result.task_type == "stats"
        assert result.answer["cluster"]["alive_workers"] == 2


# ------------------------------------------------------------------------- CLI
def test_cli_stats_reads_a_live_service(capsys, wire_server):
    from repro.__main__ import main

    service = build_service(seed=0)
    assert main(["stats", "--port", str(wire_server(service.handle_batch))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "metrics" in payload and "service" in payload


def test_cli_stats_reads_the_side_channel():
    from repro.__main__ import main
    from repro.obs import serve_stats_in_thread

    service = build_service(seed=0)
    stats = serve_stats_in_thread(service.stats_snapshot, "127.0.0.1", 0)
    assert stats is not None
    try:
        assert main(["stats", "--stats-port", str(stats.port)]) == 0
    finally:
        stats.close()
        service.close()


def test_cli_stats_unreachable_service_fails_cleanly(capsys):
    from repro.__main__ import main

    assert main(["stats", "--port", "1", "--timeout", "0.2"]) == 1
    assert "cannot reach" in capsys.readouterr().err
