"""Worker mechanics: bounded queues, lifecycle, and subprocess shards."""

import threading
import time

import pytest

from cluster_testing import FULL_CONFIG, PromptPureLLM, make_mixed_specs

from repro.api.protocol import encode_request
from repro.cluster import Router, SubprocessWorker, ThreadWorker, WorkerDeadError
from repro.core import UniDM
from repro.serving import ExecutionEngine, ServingService


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
        router.workers[victim_id].kill()
        deadline = time.monotonic() + 5
        while router.workers[victim_id].ping() and time.monotonic() < deadline:
            time.sleep(0.05)
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
