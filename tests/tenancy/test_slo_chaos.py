"""Chaos acceptance (PR 8): an abusive tenant pages; its neighbours don't.

Reuses the PR 7 flood harness: one tenant floods at ~20x its configured
rate alongside two well-behaved tenants.  With per-tenant SLOs configured,
the abuser's shed-budget objective must breach within one evaluation
interval of the flood, ``/readyz`` must answer 503 while the page alert
fires (and recover after the load stops), the well-behaved tenant's
objectives must never fire, and a ``/doctor`` bundle pulled mid-breach
must carry the firing alert, the rolling windows and thread stacks.
"""

import pathlib
import sys
import time

from repro.core import UniDM, UniDMConfig
from repro.llm import CachedLLM
from repro.obs import MetricsRegistry, serve_stats_in_thread
from repro.obs.diagnostics import build_bundle
from repro.obs.slo import SLOSpec
from repro.serving.service import ServingService

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from test_isolation import (  # noqa: E402
    ABUSER,
    SlowLLM,
    run_phase,
    tenant_registry,
)
from repro.api.protocol import decode_response, encode_request  # noqa: E402
from repro.cli.fetch import fetch_probe  # noqa: E402

#: Short windows so breach and recovery both happen within test time.
WINDOWS = ("2s",)


def make_service():
    registry = MetricsRegistry()
    pipeline = UniDM(CachedLLM(SlowLLM()), UniDMConfig.full(seed=0))
    slos = [
        SLOSpec(
            name="abuser-shed",
            kind="error_rate",
            tenant=ABUSER,
            budget=0.05,
            windows=WINDOWS,
            severity="page",
        ),
        SLOSpec(
            name="good-a-shed",
            kind="error_rate",
            tenant="good-a",
            budget=0.05,
            windows=WINDOWS,
            severity="page",
        ),
        SLOSpec(
            name="good-a-p99",
            kind="latency",
            tenant="good-a",
            threshold=0.5,
            percentile=0.99,
            windows=WINDOWS,
            severity="page",
        ),
    ]
    return ServingService(
        pipeline,
        metrics=registry,
        tenants=tenant_registry(),
        slos=slos,
        monitor_interval=0.25,
    )


def test_flood_pages_the_abuser_slo_and_flips_readiness():
    # Closed on the way out: the stats thread below has no stop handle and
    # holds the service for good, so nothing else would stop its engine.
    with make_service() as service:
        monitor = service.monitor

        def submit(spec, tenant):
            response = service.handle_request(
                encode_request(spec, request_id=0, tenant=tenant)
            )
            return decode_response(response)

        port = serve_stats_in_thread(
            service.stats_snapshot,
            "127.0.0.1",
            0,
            monitor=monitor,
            doctor_fn=lambda: build_bundle(
                snapshot_fn=service.stats_snapshot,
                monitor=monitor,
                config={"command": "chaos-test"},
            ),
        )
        assert port is not None

        # Baseline sample, then the flood, then one evaluation tick: the
        # abuser's objective must already be firing.
        monitor.tick()
        abuser_results = run_phase(submit, with_abuse=True)
        assert any(r.error is not None for r in abuser_results)
        monitor.tick()

        firing = {alert["slo"] for alert in monitor.engine.alerts()}
        assert "abuser-shed" in firing
        # The well-behaved tenant's objectives never fire.
        assert "good-a-shed" not in firing
        assert "good-a-p99" not in firing

        # Readiness gates on the page alert: 503 with the reason spelled out.
        status, payload = fetch_probe("127.0.0.1", port, "/readyz")
        assert status == 503
        assert any("abuser-shed" in reason for reason in payload["reasons"])

        # A diagnostic bundle pulled mid-breach carries the whole story.
        status, bundle = fetch_probe("127.0.0.1", port, "/doctor")
        assert status == 200
        assert "abuser-shed" in {alert["slo"] for alert in bundle["alerts"]}
        series = bundle["timeseries"]["series"]
        assert f"tenant.{ABUSER}.rate_limited" in series
        assert "Thread" in bundle["thread_stacks"]
        assert bundle["config"] == {"command": "chaos-test"}

        # After the flood stops, quiet ticks age the breach out of the window
        # and readiness recovers.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and monitor.engine.alerts():
            time.sleep(0.25)
            monitor.tick()
        assert monitor.engine.alerts() == []
        status, payload = fetch_probe("127.0.0.1", port, "/readyz")
        assert status == 200
        assert payload["ready"] is True

        # The breach/recovery lifecycle landed in the metrics.
        counters = service.stats_snapshot()["metrics"]["counters"]
        assert counters["slo.breaches"] >= 1
        assert counters["slo.recoveries"] >= 1
