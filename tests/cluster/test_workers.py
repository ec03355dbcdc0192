"""Worker mechanics: the bound, overlap, fairness, lifecycle, subprocess shards."""

import re
import threading

import pytest

from cluster_testing import FULL_CONFIG, PromptPureLLM, make_mixed_specs

from repro.api.protocol import encode_request
from repro.cluster import Router, SubprocessWorker, ThreadWorker, WorkerDeadError
from repro.core import UniDM
from repro.obs import MetricsRegistry
from repro.serving import EngineConfig, ExecutionEngine, ServingService


def make_service() -> ServingService:
    return ServingService(UniDM(PromptPureLLM(), FULL_CONFIG), ExecutionEngine())


def wire(spec, request_id=0):
    return encode_request(spec, request_id=request_id, version=2)


# ------------------------------------------------------------- thread worker
def test_thread_worker_answers_batches_in_order():
    worker = ThreadWorker("w0", make_service())
    try:
        specs = make_mixed_specs(1)
        responses = worker.submit([wire(s, i) for i, s in enumerate(specs)])
        assert [r["id"] for r in responses] == list(range(len(specs)))
        assert all(r["ok"] for r in responses)
    finally:
        worker.close()


def test_thread_worker_bounded_queue_applies_backpressure():
    worker = ThreadWorker("w0", make_service(), queue_depth=1)
    try:
        specs = make_mixed_specs(1)[:2]
        outcomes: list = []

        def one_batch(spec):
            outcomes.append(worker.submit([wire(spec)]))

        threads = [
            threading.Thread(target=one_batch, args=(spec,)) for spec in specs * 4
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # Every submission eventually completed despite the depth-1 queue.
        assert len(outcomes) == len(threads)
        assert all(batch[0]["ok"] for batch in outcomes)
    finally:
        worker.close()


def test_thread_worker_queue_depth_must_be_positive():
    with pytest.raises(ValueError):
        ThreadWorker("w0", make_service(), queue_depth=0)


def test_closed_thread_worker_raises_worker_dead():
    worker = ThreadWorker("w0", make_service())
    worker.close()
    assert worker.ping() is False
    with pytest.raises(WorkerDeadError):
        worker.submit([wire(make_mixed_specs(1)[0])])


def test_thread_worker_stats_expose_serving_internals():
    worker = ThreadWorker("w0", make_service())
    try:
        worker.submit([wire(make_mixed_specs(1)[0])])
        row = worker.stats()
        assert row.alive is True
        assert row.requests_served == 1
        # The bare PromptPureLLM has no cache: counters stay at their
        # unknown defaults rather than inventing numbers.
        assert row.cache_entries == -1
    finally:
        worker.close()


# ------------------------------------------- callers meet in the worker's engine
# ``gated_worker`` (tests/conftest.py): a gated backend holds the engine's one
# LLM thread while batches line up behind it, in call order, without sleeping.
def test_wire_batches_of_two_callers_share_round_trips(gated_worker):
    callers = gated_worker(EngineConfig(workers=8, max_batch_size=8))
    callers.hold()
    callers.line_up("a", [f"a-{i}" for i in range(4)])
    callers.line_up("b", [f"b-{i}" for i in range(4)])
    callers.release()
    assert all(r["ok"] for name in "ab" for r in callers.outcomes[name])
    round_trips = [prompts for _, prompts in callers.backend.batches]
    # Nine tasks of three prompts each: one worker-wide consumer would serve
    # the two wire batches one after the other, four prompts a round trip at
    # best (nine round trips).
    assert sum(len(prompts) for prompts in round_trips) == 27
    assert len(round_trips) <= 7
    # ...and some round trip carries prompts of both wire batches.
    assert {"a", "b"} in [
        set(re.findall(r"<([ab])-\d>", " ".join(prompts))) for prompts in round_trips
    ]


def test_a_flooders_batch_cannot_hold_the_shard_from_a_polite_tenant(gated_worker):
    callers = gated_worker(EngineConfig(workers=1))
    callers.hold()
    callers.line_up("flood", [f"flood-{i}" for i in range(8)], tenant="flooder")
    callers.line_up("polite", ["polite"], tenant="polite")
    callers.release()
    order = callers.backend.tag_order()
    assert order[0] == "holder"
    # Task by task, not batch by batch: second among the contenders.
    assert order[1:].index("polite") <= 1


def test_the_callers_weights_split_the_shards_slots(gated_worker):
    callers = gated_worker(EngineConfig(workers=1))
    callers.hold()
    callers.line_up("heavy", [f"heavy-{i}" for i in range(8)], tenant="heavy", weight=2.0)
    callers.line_up("light", [f"light-{i}" for i in range(8)], tenant="light", weight=1.0)
    callers.release()
    first = [tag.split("-")[0] for tag in callers.backend.tag_order()[1:10]]
    assert first.count("heavy") == 6
    assert first.count("light") == 3


def test_the_bound_holds_the_next_caller_outside(gated_worker):
    registry = MetricsRegistry()
    callers = gated_worker(queue_depth=1, metrics=registry)
    gauge = registry.gauge("worker.inflight.w0")
    callers.hold()
    callers.line_up("second", ["second"])
    callers.start("third", ["third"])
    # queue_depth + 1 batches are inside; the third has not entered.
    assert not callers.engine.handed.acquire(timeout=0.2)
    assert gauge.value == 2
    assert "third" not in callers.outcomes
    callers.backend.gate.set()  # the two inside leave: there is room
    assert callers.engine.handed.acquire(timeout=10)
    callers.finish()
    assert all(batch[0]["ok"] for batch in callers.outcomes.values())
    assert gauge.value == 0


def test_close_turns_away_a_caller_blocked_at_the_bound_and_drains_the_rest(
    gated_worker,
):
    callers = gated_worker(queue_depth=1)
    callers.hold()
    callers.line_up("second", ["second"])
    callers.start("third", ["third"])
    assert not callers.engine.handed.acquire(timeout=0.2)  # at the bound
    closing = threading.Thread(target=callers.worker.close)
    closing.start()
    # The blocked caller is woken and raises without having entered, while
    # the two inside are still held by the gate.
    callers.finish("third")
    assert isinstance(callers.outcomes["third"], WorkerDeadError)
    assert callers.worker.ping() is False
    assert closing.is_alive() and set(callers.outcomes) == {"third"}
    callers.release()
    closing.join(timeout=30)
    assert not closing.is_alive()
    # close() waited for the batches inside: they were answered.
    assert callers.outcomes["holder"][0]["ok"]
    assert callers.outcomes["second"][0]["ok"]


def test_a_batch_cut_off_by_close_requeues_onto_a_survivor(gated_llm, monkeypatch):
    monkeypatch.setattr(ThreadWorker, "DRAIN_TIMEOUT", 0.05)
    backends = [gated_llm(), gated_llm(open_gate=True)]
    specs = make_mixed_specs(2)
    with Router.local(
        2, llm_factory=lambda index: backends[index], config=FULL_CONFIG
    ) as router:
        victim_id = "worker-00"
        assert any(router.worker_for(spec) == victim_id for spec in specs)
        outcome: list = []
        call = threading.Thread(target=lambda: outcome.append(router.submit_specs(specs)))
        call.start()
        # The victim's batch is in its engine, held at the backend's gate;
        # close() gives up waiting for it and closes the engine under it.
        assert backends[0].entered.acquire(timeout=10)
        closing = threading.Thread(target=router.workers[victim_id].close)
        closing.start()
        call.join(timeout=30)
        assert not call.is_alive()
        backends[0].gate.set()  # the engine's close waits for its LLM thread
        closing.join(timeout=30)
        assert not closing.is_alive()
        assert outcome and all(result.error is None for result in outcome[0])
        stats = router.stats()
        assert stats.requeues > 0
        assert stats.deaths == 1
        assert victim_id not in router.live_workers


# --------------------------------------------------------- subprocess worker
def test_subprocess_cluster_round_trip_and_failover(tmp_path):
    specs = make_mixed_specs(2)
    router = Router.spawn(2, seed=0, cache_dir=str(tmp_path / "shards"))
    try:
        first = router.submit_specs(specs)
        assert all(result.error is None for result in first)
        assert len(first) == len(specs)

        # Kill one child ungracefully; the router must requeue onto the
        # survivor and still answer everything.
        victim_id = sorted(router.live_workers)[0]
        router.workers[victim_id].kill()  # returns once the child has exited
        assert not router.workers[victim_id].ping()
        second = router.submit_specs(specs)
        assert len(second) == len(specs)
        assert all(result.error is None for result in second)
        stats = router.stats()
        assert stats.deaths == 1
        assert stats.requeues > 0
        assert victim_id not in router.live_workers
    finally:
        router.close()


def test_subprocess_worker_ping_and_close(tmp_path):
    worker = SubprocessWorker("w0", seed=0, cache_dir=str(tmp_path / "shard"))
    try:
        assert worker.ping() is True
        responses = worker.submit([wire(make_mixed_specs(1)[0])])
        assert responses[0]["ok"] is True
    finally:
        worker.close()
    assert worker.ping() is False
    with pytest.raises(WorkerDeadError):
        worker.submit([wire(make_mixed_specs(1)[0])])
