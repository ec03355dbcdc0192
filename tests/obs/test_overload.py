"""Overload behavior: admission control sheds, recovers, and stays consistent.

The satellite acceptance scenario: a service (and a cluster router) under
``max_queue_depth=1`` answers excess load with a valid v2 ``overloaded``
error envelope (retry-after hint), goes back to serving once the queue
drains, and its metrics counters stay consistent under concurrent load
(admitted + shed == submitted).  Priorities are honored at dequeue.
"""

import threading
import time

import pytest

from repro.api import Client, TransformationSpec, encode_request
from repro.api.protocol import decode_response
from repro.core import UniDM, UniDMConfig
from repro.llm import CachedLLM, LanguageModel, SimulatedLLM
from repro.obs import AdmissionController, MetricsRegistry
from repro.cluster.router import Router
from repro.serving.engine import EngineConfig
from repro.serving.service import ServingService

SPEC = TransformationSpec(value="19990415", examples=[["20000101", "2000-01-01"]])


class SlowLLM(LanguageModel):
    """A simulated backend with a fixed per-call delay (forces queueing)."""

    def __init__(self, delay: float = 0.05, seed: int = 0):
        inner = SimulatedLLM(seed=seed)
        super().__init__(tokenizer=inner.tokenizer)
        self.inner = inner
        self.delay = delay
        self.name = f"slow({inner.name})"

    def _complete_text(self, prompt: str) -> str:
        time.sleep(self.delay)
        return self.inner._complete_text(prompt)


def make_service(registry=None, delay=0.05, **admission):
    registry = registry if registry is not None else MetricsRegistry()
    llm = CachedLLM(SlowLLM(delay=delay), metrics=registry)
    pipeline = UniDM(llm, UniDMConfig.full(seed=0))
    return ServingService(pipeline, metrics=registry, **admission)


# ------------------------------------------------------------------ controller
def test_admission_controller_capacity_semantics():
    controller = AdmissionController(
        max_inflight=2, max_queue_depth=1, metrics=MetricsRegistry()
    )
    assert controller.capacity == 3
    assert controller.try_acquire(3)
    assert not controller.try_acquire(1)
    controller.release(2)
    assert controller.try_acquire(2)
    assert controller.pending == 3


def test_a_reset_keeps_the_pending_gauge_at_the_controllers_level():
    registry = MetricsRegistry()
    controller = AdmissionController(4, 4, metrics=registry)
    pending = registry.gauge("admission.pending")
    assert controller.try_acquire(3)
    registry.reset()
    assert pending.value == 3 and pending.high_water == 3
    controller.release(3)
    assert pending.value == controller.pending == 0


def test_admission_controller_unbounded_by_default():
    controller = AdmissionController(metrics=MetricsRegistry())
    assert controller.capacity is None
    assert controller.try_acquire(10_000)


def test_oversized_batch_is_admitted_when_idle():
    # A batch larger than the whole capacity must not be shed forever: with
    # nothing pending it is admitted (the bound is on concurrent work).
    registry = MetricsRegistry()
    controller = AdmissionController(max_queue_depth=2, metrics=registry)
    assert controller.try_acquire(10)
    assert not controller.try_acquire(1)  # saturated while it runs
    controller.release(10)
    assert controller.try_acquire(1)
    controller.release(1)
    assert controller.pending == 0
    assert registry.counter("admission.admitted").value == 11
    assert registry.counter("admission.shed").value == 1


def test_service_serves_oversized_batch_instead_of_starving():
    service = make_service(delay=0.0, max_inflight=1, max_queue_depth=1)
    requests = [encode_request(SPEC, request_id=i) for i in range(5)]
    responses = service.handle_batch(requests)
    assert all(response["ok"] for response in responses)


def test_admission_controller_rejects_bad_knobs():
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=-1)
    with pytest.raises(ValueError):
        AdmissionController(retry_after=-0.1)


# --------------------------------------------------------------- service shed
def test_service_sheds_with_valid_v2_envelope_and_recovers():
    registry = MetricsRegistry()
    service = make_service(registry, delay=0.05, max_queue_depth=1)
    n_threads = 6
    responses = {}

    def call(index):
        responses[index] = service.handle_batch(
            [encode_request(SPEC, request_id=index)]
        )[0]

    threads = [threading.Thread(target=call, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    shed = [r for r in responses.values() if not r["ok"]]
    served = [r for r in responses.values() if r["ok"]]
    assert served, "at least one request must be admitted"
    assert shed, "bounded queue under concurrent load must shed something"
    for response in shed:
        # A valid v2 error envelope with the structured overloaded error.
        assert response["v"] == 2
        assert response["ok"] is False
        assert response["error"]["code"] == "overloaded"
        assert response["error"]["retry_after"] > 0
        # The controller's state at shed time rides along for observability.
        details = response["error"]["details"]
        assert details["capacity"] == 1
        assert details["pending"] >= 1
        assert details["inflight"] >= 0 and details["queue_depth"] >= 0
        assert details["inflight"] + details["queue_depth"] == details["pending"]
        result = decode_response(response)
        assert result.error is not None and result.error.code == "overloaded"
        assert result.error.details == details

    # Recovery: after the queue drains, the same request is served again.
    recovered = service.handle_batch([encode_request(SPEC, request_id=99)])[0]
    assert recovered["ok"] is True

    # Counter consistency: every submitted spec was either admitted or shed,
    # and every admitted spec executed exactly one engine batch.
    counters = registry.snapshot()["counters"]
    admitted = counters.get("service.admission.admitted", 0)
    shed_count = counters.get("service.admission.shed", 0)
    assert admitted + shed_count == n_threads + 1
    # One request a call: each admitted call is one engine batch.
    engine_batches = registry.snapshot()["histograms"]["service.batch_latency"]["count"]
    assert engine_batches == admitted == len(served) + 1
    assert counters["service.requests"] == n_threads + 1
    assert service.admission.pending == 0


def test_stats_requests_are_answered_even_when_saturated():
    registry = MetricsRegistry()
    service = make_service(registry, delay=0.2, max_queue_depth=1)
    started = threading.Event()

    def saturate():
        started.set()
        service.handle_batch([encode_request(SPEC, request_id=0)])

    thread = threading.Thread(target=saturate)
    thread.start()
    started.wait(5)
    time.sleep(0.05)  # let the batch reach the engine
    # A stats request bypasses admission and the batch lock entirely.
    response = service.handle_batch(
        [{"v": 2, "id": 1, "task": {"type": "stats"}}]
    )[0]
    assert response["ok"] is True
    assert "metrics" in response["result"]["answer"]
    thread.join()


# ---------------------------------------------------------------- router shed
def test_router_sheds_and_recovers_under_bounded_queue():
    def llm_factory(index):
        return SlowLLM(delay=0.05, seed=0)

    with Router.local(
        2, llm_factory=llm_factory, max_queue_depth=1
    ) as router:
        client = Client.cluster(router=router)
        n_threads = 6
        outcomes = {}

        def call(index):
            outcomes[index] = client.submit_many([SPEC])[0]

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        shed = [r for r in outcomes.values() if r.error is not None]
        served = [r for r in outcomes.values() if r.error is None]
        assert served and shed
        for result in shed:
            assert result.error.code == "overloaded"
            assert result.error.retry_after > 0
        # Recovery after drain.
        assert client.submit_many([SPEC])[0].error is None
        assert router.admission.pending == 0
        assert router.requests_served == n_threads + 1


def test_cluster_client_surfaces_overloaded_error_code():
    from repro.api import OverloadedError, TransformationSpec

    def llm_factory(index):
        return SlowLLM(delay=0.1, seed=0)

    hold_specs = [
        TransformationSpec(value=f"1999041{i}", examples=[["20000101", "2000-01-01"]])
        for i in range(3)
    ]
    router = Router.local(1, llm_factory=llm_factory, max_queue_depth=1)
    with Client.cluster(router=router) as client:
        hold = threading.Thread(target=lambda: client.submit_many(hold_specs))
        hold.start()
        # Wait until the hold batch actually occupies admission capacity.
        deadline = time.monotonic() + 5.0
        while router.admission.pending == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert router.admission.pending > 0, "hold batch never got admitted"
        try:
            outcomes = [client.submit_many([SPEC]) for _ in range(3)]
        finally:
            hold.join()
        flat = [r for batch in outcomes for r in batch]
        errors = [r.error for r in flat if r.error is not None]
        assert errors, "submissions against a saturated router must shed"
        assert all(e.code == "overloaded" for e in errors)
        shed_result = next(r for r in flat if r.error is not None)
        with pytest.raises(OverloadedError) as excinfo:
            shed_result.unwrap()
        assert excinfo.value.retry_after > 0


# ------------------------------------------------------------------ priorities
def test_thread_worker_dequeues_highest_priority_first(gated_worker):
    # One slot, held by "first" at the backend's closed gate; "low" then
    # "high" line up in the worker's engine at the priority they were
    # submitted with.
    callers = gated_worker(EngineConfig(workers=1))
    callers.hold("first")
    callers.line_up("low", ["low"], priority=0)
    callers.line_up("high", ["high"], priority=5)
    callers.release()
    assert callers.backend.tag_order() == ["first", "high", "low"]
