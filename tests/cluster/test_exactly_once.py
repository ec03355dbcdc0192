"""Exactly once per cluster: a prompt is computed once, whichever worker asks.

The in-process workers of ``Router.local`` share one owner map: a prompt's
cache entry lives on the worker the ring places its prompt key on, and a miss
is claimed there, so a sub-prompt that specs on different workers share is
computed once per cluster, not once per shard that meets it.  Two gates:

1. the count gate — backend prompts and tokens through ``Router.local(k)``
   equal one engine's (``Client.local``) exactly, for k = 1..8;
2. the claim lifecycle across two workers' caches, driven through real
   batchers on two event loops with gated backends (no sleeps): a waiter is
   answered by the claimant's batch, fails with the claimant's error, or —
   when the claimant's request ends without a batch — claims again.
"""

import asyncio
import sys
import threading
from dataclasses import replace

import pytest

from cluster_testing import (
    FULL_CONFIG,
    PromptPureLLM,
    fingerprint,
    make_mixed_specs,
    make_pipeline_specs,
    submit,
)

from repro.api import Client
from repro.cluster import Router
from repro.llm import CachedLLM
from repro.obs.metrics import MetricsRegistry

WORKLOADS = {"mixed": lambda: make_mixed_specs(6), "pipelines": make_pipeline_specs}


def billed(backends) -> tuple[int, int]:
    """Prompts the backends computed, and the tokens they were billed."""
    snapshots = [backend.usage.snapshot() for backend in backends]
    return sum(s[0] for s in snapshots), sum(s[1] + s[2] for s in snapshots)


def answers(results) -> list:
    """``fingerprint`` with a plan's answer cut to its table and answers (its
    report carries timings)."""
    return fingerprint(
        [
            replace(r, answer={key: r.answer[key] for key in ("columns", "rows", "answers")})
            if r.task_type == "pipeline"
            else r
            for r in results
        ]
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_cluster_asks_the_backend_what_one_engine_asks(workload):
    specs = WORKLOADS[workload]()
    alone = PromptPureLLM()
    with Client.local(llm=CachedLLM(alone), config=FULL_CONFIG) as local:
        expected = answers(local.submit_many(specs))
    for n_workers in range(1, 9):
        backends = [PromptPureLLM() for _ in range(n_workers)]
        with Router.local(
            n_workers,
            llm_factory=backends.__getitem__,
            config=FULL_CONFIG,
            health_interval=None,
        ) as router:
            assert answers(submit(router, specs)) == expected, n_workers
        assert billed(backends) == billed([alone]), n_workers


def test_concurrent_callers_still_compute_each_prompt_once():
    """Six callers send one workload at once to four workers sharing owners,
    with a short switch interval: a lost claim or store would show as a
    prompt computed twice."""
    specs = make_mixed_specs(3)
    alone = PromptPureLLM()
    with Client.local(llm=CachedLLM(alone), config=FULL_CONFIG) as local:
        expected = answers(local.submit_many(specs))
    backends = [PromptPureLLM() for _ in range(4)]
    answered: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Router.local(
            4, llm_factory=backends.__getitem__, config=FULL_CONFIG, health_interval=None
        ) as router:
            callers = [
                threading.Thread(target=lambda: answered.append(submit(router, specs)))
                for _ in range(6)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
                assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [answers(results) for results in answered] == [expected] * 6
    assert billed(backends) == billed([alone])


# ------------------------------------------------------------ claim lifecycle
class Side:
    """One worker's cache, asked through a batcher on an event loop of its own."""

    def __init__(self, cache, backend, batcher_for, ask):
        self.cache = cache
        self.backend = backend
        self.metrics = MetricsRegistry()
        self.batcher = batcher_for(cache, max_batch_size=8, max_wait=10.0, metrics=self.metrics)
        self._ask = ask
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def ask(self, prompt: str):
        """Submit ``prompt`` and let it take its first step (a hit, a claim or
        a wait); returns a future of its completion."""

        async def begin():
            task = asyncio.get_running_loop().create_task(self._ask(self.batcher, prompt, "p_rm"))
            await asyncio.sleep(0)
            return task

        async def outcome(task):
            return await task

        task = asyncio.run_coroutine_threadsafe(begin(), self.loop).result(10)
        return asyncio.run_coroutine_threadsafe(outcome(task), self.loop)

    def awaited(self) -> float:
        return self.metrics.counter("batcher.awaited").value

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture
def pair(gated_llm, batcher_for, ask):
    """Worker 0's backend is gated shut, worker 1's is open."""
    backends = [gated_llm(), gated_llm(open_gate=True)]
    router = Router.local(
        2, llm_factory=backends.__getitem__, config=FULL_CONFIG, health_interval=None
    )
    sides = [
        Side(router.workers[worker_id].service.pipeline.llm, backend, batcher_for, ask)
        for worker_id, backend in zip(sorted(router.workers), backends)
    ]
    try:
        yield sides
    finally:
        backends[0].gate.set()
        for side in sides:
            side.close()
        router.close()


def test_a_waiter_on_another_worker_is_answered_by_the_claimants_batch(pair):
    a, b = pair
    first = a.ask("P")
    assert a.backend.entered.acquire(timeout=10)  # A's batch holds P at the gate
    second = b.ask("P")
    assert b.awaited() == 1 and not second.done()
    a.backend.gate.set()
    assert second.result(10).text == first.result(10).text
    assert a.backend.prompts == ["P"] and b.backend.prompts == []
    # Each asker counted its own ask: A's miss, B's hit.
    assert (a.cache.misses, a.cache.hits, b.cache.misses, b.cache.hits) == (1, 0, 0, 1)


def test_a_claimants_failed_batch_fails_its_waiters(pair):
    a, b = pair

    def down(prompt):
        raise RuntimeError("backend down")

    a.backend._complete_text = down
    first = a.ask("P")
    assert a.backend.entered.acquire(timeout=10)
    second = b.ask("P")
    assert b.awaited() == 1
    a.backend.gate.set()
    for future in (first, second):
        with pytest.raises(RuntimeError, match="backend down"):
            future.result(10)
    assert b.backend.prompts == []
    # The claim ended with its batch: the next ask claims afresh.
    assert b.ask("P").result(10).prompt == "P"
    assert b.backend.prompts == ["P"]


def test_a_claimant_cancelled_before_dispatch_lets_its_waiter_claim_again(pair):
    a, b = pair
    held = a.ask("H")
    assert a.backend.entered.acquire(timeout=10)  # A's one LLM thread is taken
    first = a.ask("P")  # claimed by A, queued behind H
    second = b.ask("P")
    assert b.awaited() == 1
    first.cancel()
    # Answered while A's gate is still shut: B claimed P and computed it.
    assert second.result(10).prompt == "P"
    assert b.backend.prompts == ["P"]
    a.backend.gate.set()
    assert held.result(10).prompt == "H"
    assert a.backend.prompts == ["H"]
