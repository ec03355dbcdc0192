"""Chaos acceptance: a flooding tenant must not degrade its neighbours' p99.

One tenant submits at ~20x its configured rate while two well-behaved
tenants run their steady workload.  The front door (single service, then a
2-worker cluster) must (a) shed the abuser with structured ``rate_limited``
errors carrying ``retry_after`` and (b) keep the well-behaved tenants'
front-door p99 latency within 2x of the no-abuse baseline — the per-tenant
``tenant.<name>.latency`` histogram is the measured signal.
"""

import itertools
import threading
import time

import pytest

from repro.api import Client, TransformationSpec
from repro.api.protocol import decode_response, encode_request
from repro.core import UniDM, UniDMConfig
from repro.llm import CachedLLM, LanguageModel, SimulatedLLM
from repro.obs import MetricsRegistry
from repro.cluster.router import Router
from repro.serving.service import ServingService
from repro.tenancy import TenantConfig, TenantRegistry

GOOD_TENANTS = ("good-a", "good-b")
ABUSER = "abuser"
#: Requests each well-behaved tenant submits per phase.
GOOD_REQUESTS = 25
#: Absolute grace on the 2x bound: scheduler jitter on a busy CI box can
#: dominate when the baseline p99 itself is a few milliseconds.
GRACE_SECONDS = 0.015

_fresh = itertools.count()


def tenant_registry():
    return TenantRegistry(
        [
            TenantConfig("good-a", weight=4.0, rate=200.0, burst=50.0),
            TenantConfig("good-b", weight=4.0, rate=200.0, burst=50.0),
            TenantConfig(ABUSER, weight=1.0, rate=10.0, burst=2.0, max_inflight=4),
        ]
    )


class SlowLLM(LanguageModel):
    """Fixed per-call delay so requests genuinely contend for the engine."""

    def __init__(self, delay=0.002, seed=0):
        inner = SimulatedLLM(seed=seed)
        super().__init__(tokenizer=inner.tokenizer)
        self.inner = inner
        self.delay = delay
        self.name = f"slow({inner.name})"

    def _complete_text(self, prompt: str) -> str:
        time.sleep(self.delay)
        return self.inner._complete_text(prompt)


def fresh_spec():
    """A never-seen spec: keeps the completion cache out of the timing."""
    return TransformationSpec(
        value=f"2024{next(_fresh):08d}", examples=[["20000101", "2000-01-01"]]
    )


def run_phase(submit, with_abuse):
    """Run the good tenants' workload; optionally flood alongside it.

    Returns the abuser's collected results (empty without abuse).
    """
    good_done = threading.Event()
    abuser_results = []
    errors = []

    def good_worker(tenant):
        try:
            for _ in range(GOOD_REQUESTS):
                result = submit(fresh_spec(), tenant)
                assert result.error is None, f"{tenant} shed: {result.error}"
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def abuse_worker():
        # Two threads at one attempt per 10ms ≈ 200/s: a 20x flood of the
        # abuser's 10/s budget (paced, so the measured degradation is
        # queueing interference rather than GIL burn from a spin loop).
        while not good_done.is_set():
            abuser_results.append(submit(fresh_spec(), ABUSER))
            time.sleep(0.01)

    threads = [
        threading.Thread(target=good_worker, args=(tenant,))
        for tenant in GOOD_TENANTS
    ]
    abusers = (
        [threading.Thread(target=abuse_worker) for _ in range(2)] if with_abuse else []
    )
    for thread in threads + abusers:
        thread.start()
    for thread in threads:
        thread.join()
    good_done.set()
    for thread in abusers:
        thread.join()
    if errors:
        raise errors[0]
    return abuser_results


def measure(submit, snapshot):
    """One session: baseline phase, reset, abuse phase.  Leaves stats reset."""

    def p99(tenant):
        histograms = snapshot()["metrics"]["histograms"]
        return histograms[f"tenant.{tenant}.latency"]["p99"]

    run_phase(submit, with_abuse=False)
    baseline = {tenant: p99(tenant) for tenant in GOOD_TENANTS}
    snapshot(reset=True)

    abuser_results = run_phase(submit, with_abuse=True)
    abused = {tenant: p99(tenant) for tenant in GOOD_TENANTS}
    snapshot(reset=True)
    return baseline, abused, abuser_results


def assert_isolated(submit, snapshot):
    """The shared scenario, with one re-measure to absorb a noise burst on a
    loaded machine — genuine unfairness fails both sessions."""
    for attempt in (1, 2):
        baseline, abused, abuser_results = measure(submit, snapshot)

        shed = [r for r in abuser_results if r.error is not None]
        assert shed, "flooding at 20x the configured rate must be rate-limited"
        assert all(r.error.code == "rate_limited" for r in shed)
        assert all(r.error.retry_after > 0 for r in shed)
        assert all((r.error.details or {}).get("tenant") == ABUSER for r in shed)

        bounds = {
            tenant: 2.0 * baseline[tenant] + GRACE_SECONDS
            for tenant in GOOD_TENANTS
        }
        if all(abused[tenant] <= bounds[tenant] for tenant in GOOD_TENANTS):
            return
        if attempt == 2:
            worst = max(
                GOOD_TENANTS, key=lambda t: abused[t] - bounds[t]
            )
            pytest.fail(
                f"{worst} p99 degraded beyond isolation bound twice: baseline "
                f"{baseline[worst]:.4f}s, under abuse {abused[worst]:.4f}s "
                f"(bound {bounds[worst]:.4f}s)"
            )


def test_service_isolates_well_behaved_tenants_from_a_flood():
    registry = MetricsRegistry()
    pipeline = UniDM(CachedLLM(SlowLLM()), UniDMConfig.full(seed=0))
    service = ServingService(pipeline, metrics=registry, tenants=tenant_registry())

    def submit(spec, tenant):
        response = service.handle_request(
            encode_request(spec, request_id=0, tenant=tenant)
        )
        return decode_response(response)

    def snapshot(reset=False):
        return service.stats_snapshot(reset=reset)

    assert_isolated(submit, snapshot)


def test_cluster_isolates_well_behaved_tenants_from_a_flood():
    with Router.local(
        2,
        seed=0,
        llm_factory=lambda index: SlowLLM(seed=index),
        tenants=tenant_registry(),
    ) as router:

        client = Client.cluster(router=router)

        def submit(spec, tenant):
            return client.submit_many([spec], tenant=tenant)[0]

        def snapshot(reset=False):
            return router.stats_snapshot(reset=reset)

        assert_isolated(submit, snapshot)
