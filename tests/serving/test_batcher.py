"""Unit tests for the micro-batching scheduler."""

import asyncio
import threading
import time

import pytest

from repro.llm import CachedLLM, EchoLLM
from repro.obs.metrics import MetricsRegistry
from repro.serving import MicroBatcher, PersistentCache
from repro.serving.batcher import MIXED, ORIGIN, BatcherStats, Origin


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


def test_size_trigger_coalesces_full_batches():
    llm = RecordingLLM()

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=4, max_wait=10.0)
        return await asyncio.gather(
            *(batcher.submit(f"p{i}", "answer") for i in range(8))
        )

    completions = run(scenario())
    assert [c.prompt for c in completions] == [f"p{i}" for i in range(8)]
    assert all(c.text == "ok" for c in completions)
    assert [len(prompts) for _, prompts in llm.batches] == [4, 4]


def test_idle_trigger_flushes_partial_batch_without_waiting():
    llm = RecordingLLM()

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=100, max_wait=30.0)
        return await asyncio.gather(*(batcher.submit(f"p{i}") for i in range(3)))

    started = time.perf_counter()
    completions = run(scenario())
    elapsed = time.perf_counter() - started
    assert len(completions) == 3
    # One coalesced batch, dispatched by the idle heuristic, not the 30s timer.
    assert [len(prompts) for _, prompts in llm.batches] == [3]
    assert elapsed < 5.0
    assert llm.batches and llm.batches[0][1] == ["p0", "p1", "p2"]


def test_kinds_mix_in_one_batch_in_ticket_order():
    llm = RecordingLLM()
    submitted = [(3, "c", "answer"), (1, "a1", "p_rm"), (2, "b", "p_dp"), (4, "a2", "p_rm")]

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=8, max_wait=10.0)
        loop = asyncio.get_running_loop()
        completions = await asyncio.gather(
            *(
                loop.create_task(submit_as(batcher, Origin(ticket=ticket), prompt, kind))
                for ticket, prompt, kind in submitted
            )
        )
        return batcher.stats, completions

    stats, completions = run(scenario())
    # One round trip for all three kinds, oldest ticket first, labelled mixed.
    assert llm.batches == [(MIXED, ["a1", "b", "c", "a2"])]
    # Matched by position: every waiter holds the completion of its own prompt.
    assert [c.prompt for c in completions] == [prompt for _, prompt, _ in submitted]
    # Per-kind accounting stays exact; the label is not a kind.
    assert stats.by_kind == {"p_rm": 2, "p_dp": 1, "answer": 1}
    assert (stats.requests, stats.batches, stats.max_batch) == (4, 1, 4)


def test_stats_track_batch_shapes():
    llm = RecordingLLM()

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=2, max_wait=10.0)
        await asyncio.gather(*(batcher.submit(f"p{i}", "answer") for i in range(5)))
        return batcher.stats

    stats = run(scenario())
    assert stats.requests == 5
    assert stats.max_batch == 2
    assert stats.batches >= 3
    assert stats.mean_batch == pytest.approx(5 / stats.batches)


def test_usage_accounting_flows_to_the_model():
    llm = RecordingLLM()

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=4, max_wait=10.0)
        await asyncio.gather(*(batcher.submit(f"p{i}", "p_cq") for i in range(4)))

    run(scenario())
    assert llm.usage.calls == 4
    assert set(llm.usage.per_prompt_kind) == {"p_cq"}


def test_backend_errors_propagate_to_every_waiter():
    class FailingLLM(EchoLLM):
        def complete_batch(self, prompts, kind="other"):
            raise RuntimeError("backend down")

    async def scenario():
        batcher = MicroBatcher(FailingLLM(), max_batch_size=2, max_wait=10.0)
        results = await asyncio.gather(
            batcher.submit("a"), batcher.submit("b"), return_exceptions=True
        )
        return results

    results = run(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_a_short_reply_fails_every_waiter_of_its_batch():
    class ShortLLM(EchoLLM):
        def complete_batch(self, prompts, kind="other"):
            return super().complete_batch(prompts[:-1], kind=kind)

    async def scenario():
        batcher = MicroBatcher(ShortLLM(), max_batch_size=2, max_wait=10.0)
        return await asyncio.wait_for(
            asyncio.gather(
                batcher.submit("a", "p_rm"), batcher.submit("b", "answer"), return_exceptions=True
            ),
            timeout=5.0,  # at the parent the second waiter stayed pending for ever
        )

    results = run(scenario())
    assert [type(r) for r in results] == [RuntimeError, RuntimeError]
    assert "1 completions for 2 prompts" in str(results[0])


def test_submissions_after_a_flush_form_new_batches():
    llm = RecordingLLM()

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=4, max_wait=10.0)
        await asyncio.gather(*(batcher.submit(f"x{i}") for i in range(4)))
        await asyncio.gather(*(batcher.submit(f"y{i}") for i in range(2)))

    run(scenario())
    assert [len(prompts) for _, prompts in llm.batches] == [4, 2]


# ------------------------------------------------- the shared-loop dispatch rule
async def submit_as(batcher, origin, prompt, kind):
    ORIGIN.set(origin)  # scoped to the task this coroutine is wrapped in
    return await batcher.submit(prompt, kind)


def test_holds_while_busy_then_serves_the_oldest_ticket_first(gated_llm):
    llm = gated_llm()

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=8, max_wait=0.001)
        loop = asyncio.get_running_loop()
        holder = loop.create_task(submit_as(batcher, Origin(ticket=1), "h", "p_rm"))
        await loop.run_in_executor(None, llm.entered.acquire)  # the thread is taken
        young = [
            loop.create_task(submit_as(batcher, Origin(ticket=10 + i), f"y{i}", "answer"))
            for i in range(2)
        ]
        await asyncio.sleep(0.01)  # ten max_waits
        old = loop.create_task(submit_as(batcher, Origin(ticket=2), "o", "p_cq"))
        await asyncio.sleep(0.01)
        # Busy: no idle, size or timeout flush queued anything behind the holder.
        assert len(llm.batches) == 1
        llm.gate.set()
        await asyncio.gather(holder, old, *young)

    run(scenario())
    # Freed, the thread takes everything that collected while it was held, in
    # one batch, in ticket order rather than arrival order.
    assert llm.batches == [("p_rm", ["h"]), (MIXED, ["o", "y0", "y1"])]


def test_delivers_before_it_dispatches(gated_llm):
    llm = gated_llm()

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=8, max_wait=10.0)
        loop = asyncio.get_running_loop()

        async def two_steps():
            await submit_as(batcher, Origin(ticket=1), "first", "p_rm")
            return await batcher.submit("second", "answer")

        walker = loop.create_task(two_steps())
        await loop.run_in_executor(None, llm.entered.acquire)
        waiter = loop.create_task(submit_as(batcher, Origin(ticket=2), "other", "answer"))
        await asyncio.sleep(0)
        llm.gate.set()
        await asyncio.gather(walker, waiter)

    run(scenario())
    # The task woken by the first round trip submitted its next prompt before
    # the freed thread was handed a batch, so it rides with the one waiting —
    # ahead of it: it belongs to the older task.
    assert llm.batches == [("p_rm", ["first"]), ("answer", ["second", "other"])]


def test_the_cut_follows_tickets_not_kinds_or_arrival(gated_llm):
    llm = gated_llm()
    submitted = [(5, "p_rm"), (1, "answer"), (3, "p_rm"), (2, "answer"), (3, "answer")]

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=2, max_wait=10.0)
        loop = asyncio.get_running_loop()
        holder = loop.create_task(submit_as(batcher, Origin(ticket=0), "h", "p_cq"))
        await loop.run_in_executor(None, llm.entered.acquire)
        # Held behind "h", all five are pending when the thread comes free.
        waiters = [
            loop.create_task(submit_as(batcher, Origin(ticket=ticket), f"t{ticket}-{kind}", kind))
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


def test_routes_are_noted_on_the_llm_thread_before_the_call(gated_llm):
    class Routed(gated_llm):
        def __init__(self):
            super().__init__(open_gate=True)
            self.events = []

        def note_route(self, prompt, route):
            self.events.append(("note", prompt, route, threading.current_thread()))

        def complete_batch(self, prompts, kind="other"):
            self.events.append(("call", list(prompts), threading.current_thread()))
            return super().complete_batch(prompts, kind=kind)

    llm = Routed()

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=8, max_wait=10.0)
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            loop.create_task(submit_as(batcher, Origin(route="spec-1"), "a", "answer")),
            loop.create_task(submit_as(batcher, Origin(), "b", "answer")),
        )

    run(scenario())
    (_, prompt, route, noted_on), (_, prompts, called_on) = llm.events
    assert (prompt, route, prompts) == ("a", "spec-1", ["a", "b"])
    assert noted_on is called_on is not threading.current_thread()


# --------------------------------------------------------- hits never queue
def test_a_hit_does_not_wait_for_the_round_trip_in_flight(gated_llm):
    backend = gated_llm()
    metrics = MetricsRegistry()
    llm = CachedLLM(backend, metrics=metrics)
    warm = llm.complete("H", kind="p_rm")  # only complete_batch waits at the gate
    run_stats = BatcherStats()

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=8, max_wait=10.0, metrics=metrics)
        loop = asyncio.get_running_loop()
        miss = loop.create_task(submit_as(batcher, Origin(stats=run_stats), "M", "answer"))
        await loop.run_in_executor(None, backend.entered.acquire)  # the one thread is held
        try:
            # At the parent "H" took a seat behind the held round trip.
            hit = await asyncio.wait_for(
                loop.create_task(submit_as(batcher, Origin(stats=run_stats), "H", "p_rm")), 5.0
            )
            assert not backend.gate.is_set() and not miss.done()
            stats = batcher.stats
            assert (stats.cached, stats.requests, stats.batches) == (1, 1, 1)
        finally:
            backend.gate.set()
        return hit, await miss, stats

    hit, missed, stats = run(scenario())
    assert hit.text == warm.text and missed.prompt == "M"
    assert backend.prompts == ["H", "M"] and backend.batches == [("answer", ["M"])]
    # A request asked for a seat in a batch; a hit is counted beside it, for
    # the batcher and for its run alike, and by_kind counts every prompt.
    for counted in (stats, run_stats):
        assert (counted.cached, counted.requests, counted.batches) == (1, 1, 1)
        assert counted.by_kind == {"answer": 1, "p_rm": 1}
        assert counted.mean_batch == 1.0
    assert metrics.counter("batcher.cached").value == 1
    assert metrics.counter("batcher.requests").value == 1
    assert metrics.histogram("batcher.queue_wait").count == 1  # the hit did not wait
    assert "mixed" not in llm.usage.per_prompt_kind


def test_a_prompt_asked_again_while_in_flight_is_computed_once(gated_llm):
    backend = gated_llm()
    metrics = MetricsRegistry()
    llm = CachedLLM(backend, metrics=metrics)

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=8, max_wait=10.0, metrics=metrics)
        loop = asyncio.get_running_loop()
        first = loop.create_task(batcher.submit("P", "p_rm"))
        await loop.run_in_executor(None, backend.entered.acquire)
        second = loop.create_task(batcher.submit("P", "p_rm"))
        await asyncio.sleep(0)
        backend.gate.set()
        # Not stored yet: the second asker found nothing and queued.
        assert metrics.counter("batcher.requests").value == 2 and batcher.stats.cached == 0
        return await asyncio.gather(first, second), batcher.stats

    (first, second), stats = run(scenario())
    assert first.text == second.text
    # Its own batch's lookup serves it as a hit: one backend call, as before.
    assert backend.batches == [("p_rm", ["P"])] and backend.prompts == ["P"]
    assert metrics.counter("llm.calls").value == 1
    assert (llm.hits, llm.misses, llm.usage.calls) == (1, 1, 2)
    assert (stats.cached, stats.requests, stats.batches) == (0, 2, 2)


def test_a_hit_is_attributed_to_the_route_that_asked(tmp_path, gated_llm):
    store = PersistentCache(tmp_path / "cache")
    llm = CachedLLM(gated_llm(open_gate=True), persistent=store)

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=8, max_wait=10.0)
        loop = asyncio.get_running_loop()
        for route in ("spec-1", "spec-2", None):
            await loop.create_task(submit_as(batcher, Origin(route=route), "shared", "p_rm"))
        return batcher.stats

    stats = run(scenario())
    assert (stats.requests, stats.cached) == (1, 2)
    # The entry moves with either spec on a resize — and the note is on disk.
    for cache in (store, PersistentCache(tmp_path / "cache")):
        for route in ("spec-1", "spec-2"):
            assert [row["route"] for row in cache.entries_for_routes({route})] == [route]
        assert cache.route_keys() == {"spec-1", "spec-2"}


def test_a_backend_without_a_cache_takes_the_queue(gated_llm):
    llm = gated_llm(open_gate=True)

    async def scenario():
        batcher = MicroBatcher(llm, max_batch_size=8, max_wait=10.0)
        await batcher.submit("a")
        await batcher.submit("a")
        return batcher.stats

    stats = run(scenario())
    assert (stats.cached, stats.requests, stats.batches) == (0, 2, 2)


def test_validates_configuration():
    with pytest.raises(ValueError):
        MicroBatcher(EchoLLM(), max_batch_size=0)
    with pytest.raises(ValueError):
        MicroBatcher(EchoLLM(), max_wait=-1.0)
