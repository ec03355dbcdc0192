"""Unit tests for the micro-batching scheduler."""

import asyncio
import errno
import threading
import time

from repro.llm import CachedLLM, EchoLLM
from repro.obs import configure_default_event_log
from repro.obs.metrics import MetricsRegistry
from repro.serving import PersistentCache
from repro.serving.batcher import MIXED


class RecordingLLM(EchoLLM):
    """Echo model that records every batch it executes."""

    def __init__(self, reply: str = "ok", delay: float = 0.0):
        super().__init__(reply=reply)
        self.batches: list[tuple[str, list[str]]] = []
        self.delay = delay

    def complete_batch(self, prompts, kind="other"):
        if self.delay:
            time.sleep(self.delay)
        self.batches.append((kind, list(prompts)))
        return super().complete_batch(prompts, kind=kind)


def run(coro):
    return asyncio.run(coro)


def test_size_trigger_coalesces_full_batches(batcher_for, ask):
    llm = RecordingLLM()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=4, max_wait=10.0)
        return await asyncio.gather(
            *(ask(batcher, f"p{i}", "answer") for i in range(8))
        )

    completions = run(scenario())
    assert [c.prompt for c in completions] == [f"p{i}" for i in range(8)]
    assert all(c.text == "ok" for c in completions)
    assert [len(prompts) for _, prompts in llm.batches] == [4, 4]


def test_idle_trigger_flushes_partial_batch_without_waiting(batcher_for, ask):
    llm = RecordingLLM()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=100, max_wait=30.0)
        return await asyncio.gather(*(ask(batcher, f"p{i}") for i in range(3)))

    started = time.perf_counter()
    completions = run(scenario())
    elapsed = time.perf_counter() - started
    assert len(completions) == 3
    # One coalesced batch, dispatched by the idle heuristic, not the 30s timer.
    assert [len(prompts) for _, prompts in llm.batches] == [3]
    assert elapsed < 5.0
    assert llm.batches and llm.batches[0][1] == ["p0", "p1", "p2"]


def test_kinds_mix_in_one_batch_in_ticket_order(batcher_for, ask):
    llm = RecordingLLM()
    submitted = [(3, "c", "answer"), (1, "a1", "p_rm"), (2, "b", "p_dp"), (4, "a2", "p_rm")]

    metrics = MetricsRegistry()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=8, max_wait=10.0, metrics=metrics)
        loop = asyncio.get_running_loop()
        return await asyncio.gather(
            *(
                loop.create_task(ask(batcher, prompt, kind, ticket=ticket))
                for ticket, prompt, kind in submitted
            )
        )

    completions = run(scenario())
    # One round trip for all three kinds, oldest ticket first, labelled mixed.
    assert llm.batches == [(MIXED, ["a1", "b", "c", "a2"])]
    # Matched by position: every waiter holds the completion of its own prompt.
    assert [c.prompt for c in completions] == [prompt for _, prompt, _ in submitted]
    assert counts(metrics) == (4, 0, 1)


def test_stats_track_batch_shapes(batcher_for, ask):
    llm = RecordingLLM()
    metrics = MetricsRegistry()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=2, max_wait=10.0, metrics=metrics)
        await asyncio.gather(*(ask(batcher, f"p{i}", "answer") for i in range(5)))

    run(scenario())
    requests, _, batches = counts(metrics)
    assert requests == 5
    assert max(len(prompts) for _, prompts in llm.batches) == 2
    assert batches == len(llm.batches) >= 3
    assert sum(len(prompts) for _, prompts in llm.batches) == requests


def test_usage_accounting_flows_to_the_model(batcher_for, ask):
    llm = RecordingLLM()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=4, max_wait=10.0)
        await asyncio.gather(*(ask(batcher, f"p{i}", "p_cq") for i in range(4)))

    run(scenario())
    assert llm.usage.calls == 4 and llm.usage.total_tokens > 0
    assert {kind for kind, _ in llm.batches} == {"p_cq"}


def test_backend_errors_propagate_to_every_waiter(batcher_for, ask):
    class FailingLLM(EchoLLM):
        def complete_batch(self, prompts, kind="other"):
            raise RuntimeError("backend down")

    async def scenario():
        batcher = batcher_for(FailingLLM(), max_batch_size=2, max_wait=10.0)
        results = await asyncio.gather(
            ask(batcher, "a"), ask(batcher, "b"), return_exceptions=True
        )
        return results

    results = run(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_a_short_reply_fails_every_waiter_of_its_batch(batcher_for, ask):
    class ShortLLM(EchoLLM):
        def complete_batch(self, prompts, kind="other"):
            return super().complete_batch(prompts[:-1], kind=kind)

    async def scenario():
        batcher = batcher_for(ShortLLM(), max_batch_size=2, max_wait=10.0)
        return await asyncio.wait_for(
            asyncio.gather(
                ask(batcher, "a", "p_rm"), ask(batcher, "b", "answer"), return_exceptions=True
            ),
            timeout=5.0,  # at the parent the second waiter stayed pending for ever
        )

    results = run(scenario())
    assert [type(r) for r in results] == [RuntimeError, RuntimeError]
    assert "1 completions for 2 prompts" in str(results[0])


def test_submissions_after_a_flush_form_new_batches(batcher_for, ask):
    llm = RecordingLLM()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=4, max_wait=10.0)
        await asyncio.gather(*(ask(batcher, f"x{i}") for i in range(4)))
        await asyncio.gather(*(ask(batcher, f"y{i}") for i in range(2)))

    run(scenario())
    assert [len(prompts) for _, prompts in llm.batches] == [4, 2]


def counts(metrics):
    """``(requests, cached, batches)``: the batcher's counters on ``metrics``."""
    return tuple(
        metrics.counter(f"batcher.{name}").value for name in ("requests", "cached", "batches")
    )


# ------------------------------------------------- the shared-loop dispatch rule
def test_holds_while_busy_then_serves_the_oldest_ticket_first(gated_llm, batcher_for, ask):
    llm = gated_llm()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=8, max_wait=0.001)
        loop = asyncio.get_running_loop()
        holder = loop.create_task(ask(batcher, "h", "p_rm", ticket=1))
        await loop.run_in_executor(None, llm.entered.acquire)  # the thread is taken
        young = [
            loop.create_task(ask(batcher, f"y{i}", "answer", ticket=10 + i))
            for i in range(2)
        ]
        await asyncio.sleep(0.01)  # ten max_waits
        old = loop.create_task(ask(batcher, "o", "p_cq", ticket=2))
        await asyncio.sleep(0.01)
        # Busy: no idle, size or timeout flush queued anything behind the holder.
        assert len(llm.batches) == 1
        llm.gate.set()
        await asyncio.gather(holder, old, *young)

    run(scenario())
    # Freed, the thread takes everything that collected while it was held, in
    # one batch, in ticket order rather than arrival order.
    assert llm.batches == [("p_rm", ["h"]), (MIXED, ["o", "y0", "y1"])]


def test_delivers_before_it_dispatches(gated_llm, batcher_for, ask):
    llm = gated_llm()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=8, max_wait=10.0)
        loop = asyncio.get_running_loop()

        async def two_steps():
            await ask(batcher, "first", "p_rm", ticket=1)
            return await ask(batcher, "second", "answer", ticket=1)

        walker = loop.create_task(two_steps())
        await loop.run_in_executor(None, llm.entered.acquire)
        waiter = loop.create_task(ask(batcher, "other", "answer", ticket=2))
        await asyncio.sleep(0)
        llm.gate.set()
        await asyncio.gather(walker, waiter)

    run(scenario())
    # The task woken by the first round trip submitted its next prompt before
    # the freed thread was handed a batch, so it rides with the one waiting —
    # ahead of it: it belongs to the older task.
    assert llm.batches == [("p_rm", ["first"]), ("answer", ["second", "other"])]


def test_the_cut_follows_tickets_not_kinds_or_arrival(gated_llm, batcher_for, ask):
    llm = gated_llm()
    submitted = [(5, "p_rm"), (1, "answer"), (3, "p_rm"), (2, "answer"), (3, "answer")]

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=2, max_wait=10.0)
        loop = asyncio.get_running_loop()
        holder = loop.create_task(ask(batcher, "h", "p_cq", ticket=0))
        await loop.run_in_executor(None, llm.entered.acquire)
        # Held behind "h", all five are pending when the thread comes free.
        waiters = [
            loop.create_task(ask(batcher, f"t{ticket}-{kind}", kind, ticket=ticket))
            for ticket, kind in submitted
        ]
        await asyncio.sleep(0)
        llm.gate.set()
        await asyncio.gather(holder, *waiters)

    run(scenario())
    assert llm.batches == [
        ("p_cq", ["h"]),
        ("answer", ["t1-answer", "t2-answer"]),
        (MIXED, ["t3-p_rm", "t3-answer"]),  # equal tickets: arrival order
        ("p_rm", ["t5-p_rm"]),
    ]


# --------------------------------------------------------- hits never queue
def test_a_hit_does_not_wait_for_the_round_trip_in_flight(gated_llm, batcher_for, ask):
    backend = gated_llm()
    metrics = MetricsRegistry()
    llm = CachedLLM(backend, metrics=metrics)
    warm = llm.complete("H", kind="p_rm")  # only complete_batch waits at the gate

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=8, max_wait=10.0, metrics=metrics)
        loop = asyncio.get_running_loop()
        miss = loop.create_task(ask(batcher, "M", "answer"))
        await loop.run_in_executor(None, backend.entered.acquire)  # the one thread is held
        try:
            # At the parent "H" took a seat behind the held round trip.
            hit = await asyncio.wait_for(
                loop.create_task(ask(batcher, "H", "p_rm")), 5.0
            )
            assert not backend.gate.is_set() and not miss.done()
            assert counts(metrics) == (1, 1, 1)
        finally:
            backend.gate.set()
        return hit, await miss

    hit, missed = run(scenario())
    assert hit.text == warm.text and missed.prompt == "M"
    assert backend.prompts == ["H", "M"] and backend.batches == [("answer", ["M"])]
    # A request asked for a seat in a batch; a hit is counted beside it.
    assert counts(metrics) == (1, 1, 1)
    assert metrics.histogram("batcher.queue_wait").count == 1  # the hit did not wait
    # The wrapper recorded the warm-up, the hit and the miss; the backend two.
    assert (llm.usage.calls, backend.usage.calls) == (3, 2)


def test_a_prompt_asked_again_while_in_flight_is_computed_once(gated_llm, batcher_for, ask):
    backend = gated_llm()
    metrics = MetricsRegistry()
    llm = CachedLLM(backend, metrics=metrics)

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=8, max_wait=10.0, metrics=metrics)
        loop = asyncio.get_running_loop()
        first = loop.create_task(ask(batcher, "P", "p_rm"))
        await loop.run_in_executor(None, backend.entered.acquire)
        second = loop.create_task(ask(batcher, "P", "p_rm"))
        await asyncio.sleep(0)
        backend.gate.set()
        # Not stored yet: the second asker found nothing and queued.
        assert counts(metrics)[:2] == (2, 0)
        return await asyncio.gather(first, second)

    first, second = run(scenario())
    assert first.text == second.text
    # Its own batch's lookup serves it as a hit: one backend call, as before.
    assert backend.batches == [("p_rm", ["P"])] and backend.prompts == ["P"]
    assert metrics.counter("llm.calls").value == 1
    assert (llm.hits, llm.misses, llm.usage.calls) == (1, 1, 2)
    assert counts(metrics) == (2, 0, 2)


def test_a_backend_without_a_cache_takes_the_queue(gated_llm, batcher_for, ask):
    llm = gated_llm(open_gate=True)
    metrics = MetricsRegistry()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=8, max_wait=10.0, metrics=metrics)
        await ask(batcher, "a")
        await ask(batcher, "a")

    run(scenario())
    assert counts(metrics) == (2, 0, 2)


# ------------------------------------------- held for the caller who is back
def test_close_cancels_a_pending_hold(batcher_for, ask, batcher_clock):
    class TakesFiveSeconds(RecordingLLM):
        """Each round trip takes five seconds of the batcher's clock."""

        def complete_batch(self, prompts, kind="other"):
            batcher_clock.now += 5.0
            return super().complete_batch(prompts, kind=kind)

    llm = TakesFiveSeconds()

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=8, max_wait=30.0)
        await ask(batcher, "first")
        batcher.answered()
        loop = asyncio.get_running_loop()
        timers = []
        call_later = loop.call_later

        def recorded(*args):
            timers.append(call_later(*args))
            return timers[-1]

        loop.call_later = recorded
        held = loop.create_task(ask(batcher, "held"))
        for _ in range(20):  # the max_wait timer, and two turns later the hold
            if len(timers) == 2:
                break
            await asyncio.sleep(0)
        assert len(timers) == 2 and not any(timer.cancelled() for timer in timers)
        batcher.close()
        held.cancel()
        return timers

    timers = run(scenario())
    assert all(timer.cancelled() for timer in timers)
    assert llm.batches == [("other", ["first"])]  # the held prompt never left


def test_a_batch_is_persisted_in_one_append_after_it_lands(
    tmp_path, monkeypatch, batcher_for, ask
):
    """The LLM thread appends a batch's misses once it has posted the landing:
    a full disk fails no waiter, is reported, and the next batch's append
    writes what the failed one staged."""
    appends = []
    full = [True]

    def full_disk(file, mode="r", *args, **kwargs):
        if "a" in mode:
            appends.append(file)
            if full[0]:
                raise OSError(errno.ENOSPC, "No space left on device")
        return open(file, mode, *args, **kwargs)

    store = PersistentCache(tmp_path / "c")
    monkeypatch.setattr("repro.serving.cache.open", full_disk, raising=False)
    llm = CachedLLM(RecordingLLM(reply="stored"), persistent=store)
    log = configure_default_event_log(capacity=64)

    def drained(batcher):
        """Jobs run in order: once this one has run, the last persist has too."""
        done = threading.Event()
        batcher._executor.submit(done.set)
        assert done.wait(10)

    async def scenario():
        batcher = batcher_for(llm, max_batch_size=4, max_wait=10.0)
        first = await asyncio.gather(*(ask(batcher, prompt) for prompt in "abcd"))
        await asyncio.to_thread(drained, batcher)
        assert len(appends) == 1 and not store.log_path.exists()
        full[0] = False
        second = await ask(batcher, "e")
        await asyncio.to_thread(drained, batcher)
        return first + [second]

    try:
        completions = run(scenario())
        (event,) = log.events(kind="cache.persist_failed")
    finally:
        configure_default_event_log(capacity=8192)
    assert [c.text for c in completions] == ["stored"] * 5
    assert "No space left" in event["error"]
    assert len(appends) == 2  # one append a batch: the second also lands the first's rows
    assert len(PersistentCache(tmp_path / "c")) == 5
