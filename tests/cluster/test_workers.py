"""Worker mechanics: overlap, fairness, lifecycle, subprocess shards."""

import re
import socket
import threading

import pytest

from cluster_testing import FULL_CONFIG, PromptPureLLM, make_mixed_specs, submit

from repro.cluster import Router, SubprocessWorker, ThreadWorker, WorkerDeadError
from repro.core import UniDM
from repro.serving import EngineConfig, ExecutionEngine, ServingService


def make_service() -> ServingService:
    return ServingService(UniDM(PromptPureLLM(), FULL_CONFIG), ExecutionEngine())


# ------------------------------------------------------------- thread worker
def test_thread_worker_answers_batches_in_order():
    worker = ThreadWorker("w0", make_service())
    try:
        specs = make_mixed_specs(1)
        results = worker.submit(specs)
        assert all(r.error is None for r in results)
        # Position i answers spec i: what that spec gets submitted alone.
        alone = [worker.submit([spec])[0] for spec in specs]
        assert [(r.task_type, r.raw) for r in results] == [(r.task_type, r.raw) for r in alone]
        assert len({r.task_type for r in results}) == len(specs)
    finally:
        worker.close()


def test_every_concurrent_caller_of_a_thread_worker_is_answered():
    worker = ThreadWorker("w0", make_service())
    try:
        specs = make_mixed_specs(1)[:2]
        outcomes: list = []

        def one_batch(spec):
            outcomes.append(worker.submit([spec]))

        threads = [
            threading.Thread(target=one_batch, args=(spec,)) for spec in specs * 4
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # Every submission completed, each on its caller's own thread.
        assert len(outcomes) == len(threads)
        assert all(batch[0].error is None for batch in outcomes)
    finally:
        worker.close()


def test_closed_thread_worker_raises_worker_dead():
    worker = ThreadWorker("w0", make_service())
    worker.close()
    assert worker.ping() is False
    with pytest.raises(WorkerDeadError):
        worker.submit(make_mixed_specs(1)[:1])


def test_thread_worker_stats_expose_serving_internals():
    worker = ThreadWorker("w0", make_service())
    try:
        worker.submit(make_mixed_specs(1)[:1])
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
    assert all(r.error is None for name in "ab" for r in callers.outcomes[name])
    round_trips = [prompts for _, prompts in callers.backend.batches]
    # Nine tasks of three prompts each: one worker-wide consumer would serve
    # the two batches one after the other, four prompts a round trip at
    # best (nine round trips).
    assert sum(len(prompts) for prompts in round_trips) == 27
    assert len(round_trips) <= 7
    # ...and some round trip carries prompts of both batches.
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


def test_close_cuts_a_batch_inside_off_with_worker_dead(gated_worker):
    callers = gated_worker(EngineConfig(workers=1))
    callers.hold()
    closing = threading.Thread(target=callers.worker.close)
    closing.start()
    # close() waits for no batch: the one inside fails at once, while the
    # backend still holds the engine's LLM thread at the gate.
    callers.threads["holder"].join(timeout=2)
    assert isinstance(callers.outcomes.get("holder"), WorkerDeadError)
    assert callers.worker.ping() is False
    callers.release()
    closing.join(timeout=30)
    assert not closing.is_alive()


def test_a_batch_cut_off_by_close_requeues_onto_a_survivor(gated_llm):
    backends = [gated_llm(), gated_llm(open_gate=True)]
    specs = make_mixed_specs(2)
    with Router.local(
        2, llm_factory=lambda index: backends[index], config=FULL_CONFIG
    ) as router:
        victim_id = "worker-00"
        assert any(router.worker_for(spec) == victim_id for spec in specs)
        outcome: list = []
        call = threading.Thread(target=lambda: outcome.append(submit(router, specs)))
        call.start()
        # The victim's batch is in its engine, held at the backend's gate;
        # close() closes the engine under it at once: only the router drains.
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
        first = submit(router, specs)
        assert all(result.error is None for result in first)
        assert len(first) == len(specs)

        # Kill one child ungracefully; the router must requeue onto the
        # survivor and still answer everything.
        victim_id = sorted(router.live_workers)[0]
        router.workers[victim_id].kill()  # returns once the child has exited
        assert not router.workers[victim_id].ping()
        second = submit(router, specs)
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
        (result,) = worker.submit(make_mixed_specs(1)[:1])
        assert result.error is None and result.answer is not None
    finally:
        worker.close()
    assert worker.ping() is False
    with pytest.raises(WorkerDeadError):
        worker.submit(make_mixed_specs(1)[:1])


def test_a_subprocess_submit_opens_no_connection_of_its_own(tmp_path, monkeypatch):
    worker = SubprocessWorker("w0", seed=0, cache_dir=str(tmp_path / "shard"))
    try:
        specs = make_mixed_specs(1)[:1]
        worker.submit(specs)  # opens the pooled connection
        opened: list = []
        connect = socket.create_connection
        monkeypatch.setattr(
            socket,
            "create_connection",
            lambda *args, **kwargs: opened.append(args) or connect(*args, **kwargs),
        )
        for _ in range(3):
            (result,) = worker.submit(specs)
            assert result.error is None
        # Every batch rode the pooled connection: no liveness probe first.
        assert opened == []
        worker.kill()
        with pytest.raises(WorkerDeadError):
            worker.submit(specs)
        assert opened == []
    finally:
        worker.close()
