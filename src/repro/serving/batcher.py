"""Micro-batching scheduler for LLM calls.

Concurrent task executions each need small, latency-sensitive LLM calls.  The
:class:`MicroBatcher` sits between the tasks' plans and the synchronous
:class:`~repro.llm.base.LanguageModel`, and it *steps the plans itself*: a
task is a :class:`Walk` over its plan (the generator of
:class:`~repro.core.plan.LLMRequest` that :mod:`repro.core.plan` describes),
and ``start(walk)`` runs it to its first miss.  Misses — of any kinds — are
coalesced into one ``complete_batch`` call; when a batch lands, its delivery
step sends each waiter its completion and runs that plan on to its next miss,
in the same step.  No coroutine, asyncio task or future is made per task or
per prompt; a batch costs one executor hop.

One batcher serves every caller of a resident
:class:`~repro.serving.engine.ExecutionEngine`, so *when* it dispatches
decides how full each backend round trip is.  The rule:

* **Hits never queue.**  Before a prompt queues, the batcher asks the backend
  for a stored answer (``cached(prompt, kind, key)``, where the backend
  offers it — a :class:`~repro.llm.cache.CachedLLM` does).  The prompt is
  keyed once, here (``key(prompt)``): its lookup, its claim and the batch
  that computes it (a :class:`~repro.llm.cache.KeyedBatch`) take that key.
  A hit is sent into the plan
  at once, on the loop thread: no queue entry, no seat in a batch, no wait
  for the round trip in flight — so only misses ride round trips, and a task
  whose next prompts are all stored runs on to its next miss in one step.  A
  hit is not a submission for the triggers below: it can never join a batch.
* **A miss is computed once.**  Where the backend offers claims
  (``claim``/``release``), a miss is claimed for this batcher before it
  queues.  A walk whose prompt another batcher holds (another worker's
  engine, in a cluster) is parked on the claim's future, not queued, and
  asks ``cached`` again when it resolves; this batcher's own repeated asks
  queue as they always did.  The claim is released when the request ends,
  with the batch's exception if it failed.
* **One batch in flight.**  While its batch is executing a batcher
  dispatches nothing — no trigger fires; pending prompts keep collecting
  batch-mates.  The batch in flight is the progress guarantee.
* **Deliver, then dispatch; persist while delivering.**  When a batch lands
  every waiter is stepped to its next miss first (its owner admits new work
  a loop turn later, as it would have started a task), and the idle check's
  two loop turns run before the next batch is dispatched.  The LLM thread
  posts the landing first and then asks the backend to ``persist`` the
  batch's misses (one append, where the backend offers it — a
  :class:`~repro.llm.cache.CachedLLM` does), so the disk write overlaps the
  delivery instead of preceding it.  A failed append is reported as a
  ``cache.persist_failed`` event; its entries stay staged for the next one.
* **Plan while the backend works.**  As a batch leaves, the batcher calls
  its owner's ``on_dispatch`` hook.  The engine uses the round trip to step
  waiting tasks to their first request, starting a loop turn later so that
  the LLM thread takes the GIL into the call first (see
  :mod:`repro.serving.engine`), and hands a prepared request to
  :meth:`MicroBatcher.start` when the task is admitted.
* **Oldest admitted task first, whatever the kind.**  Every walk carries the
  ``ticket`` its task drew when the engine admitted it; the next batch takes
  the ``max_batch_size`` pending prompts that hold the lowest tickets (equal
  tickets in arrival order).  A younger task's prompt never leaves before an
  older one's, and tasks at different stages of their chains fill one round
  trip together.  ``kind`` only labels a batch (its ``llm.call`` span): it goes
  down under its prompts' common kind, or as :data:`MIXED`; completions are
  matched to waiters by position.

With no batch in flight a batch is dispatched when the first of three
triggers fires:

* **size** — ``max_batch_size`` prompts are pending;
* **idle** — two loop turns pass without any new submission arriving (every
  walk is waiting on a round trip or a claim), so waiting longer cannot grow
  the batch — unless a caller was just answered: see *held* below;
* **timeout** — ``max_wait`` seconds elapsed since the oldest pending prompt
  (the formal progress guarantee behind the idle heuristic).

**Held, once a caller is answered.**  The idle premise is false right after
a run's caller was answered: a closed-loop caller (a wire client, a notebook,
the flow executor's next wave) submits its next run within a millisecond or
two, and that run's first prompt could ride the batch the idle check is
about to send.  So the engine tells its batchers when it answers a run
(:meth:`MicroBatcher.answered`) and when the next run arrives
(:meth:`MicroBatcher.returned`); in between, a batch the idle check would
send is held until ``answered + min(max_wait, last round trip)`` and then
sent (flushed as ``idle``, or as ``timeout`` if ``max_wait`` fires first).
A run that arrives ends the hold at once: its first prompts queue and the
idle check counts its two quiet turns afresh.  The cap is the duration of the
last landed round trip, so a hold costs at most one round trip and a
zero-latency backend never holds; and since only a run that arrives ends the
hold, a lone sequential caller — nothing pending while it is away — never
waits.  Derived, not configured: no option sets it.

The first failure of a plan (an exception out of ``send``) or of its batch
goes to its walk's ``failed``; a walk its owner marks ``dead`` (its run
failed) is dropped with :meth:`MicroBatcher.drop` and never stepped again.

Batches execute on an :class:`LLMThreads` thread, which the batchers of one
engine share, so the event loop stays responsive.  What the loop thread may
touch is bounded by the hit path: a cache's short state lock (never held
across a backend call), and behind it the persistent store's state lock,
which is never held across an append either (a ``put`` stages its entry in
memory: ``pcache.put_us`` a few µs).
"""

from __future__ import annotations

import asyncio
import time
import queue
import threading
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Sequence

from ..core.plan import LLMRequest, Plan
from ..llm.base import Completion, LanguageModel
from ..llm.cache import Claim, KeyedBatch
from ..obs.events import emit_event
from ..obs.metrics import MetricsRegistry, get_default_registry
from ..obs.span import Span

#: The label a batch goes down under when its prompts do not share a kind.
MIXED = "mixed"

_TICKET = attrgetter("ticket")


class Walk:
    """One plan the batcher steps, and where its outcome goes.

    The owner makes one per task, hands it to :meth:`MicroBatcher.start`, and
    overrides :meth:`finished` and :meth:`failed`.  The batcher keeps the
    plan's outstanding request on the walk (a plan asks one at a time) and
    counts the usage of every completion it sends in.
    """

    __slots__ = (
        "plan",
        "ticket",
        "span",
        "dead",
        "request",
        "claim",
        "enqueued",
        "wait_span",
        "dispatched",
        "calls",
        "prompt_tokens",
        "completion_tokens",
    )

    def __init__(
        self,
        plan: Plan,
        ticket: int = 0,
        span: Span | None = None,
    ):
        self.plan = plan
        #: The task's place in its owner's admission order (lower = older).
        self.ticket = ticket
        #: The task's span: its prompts' ``batcher.wait`` spans nest under it.
        self.span = span
        #: Set by the owner when it gives up on the walk (see ``drop``).
        self.dead = False
        self.request: LLMRequest | None = None
        #: The claim the queued request holds at the prompt's owner, if any.
        self.claim: Claim | None = None
        #: ``perf_counter`` at queueing; queue wait is measured at dispatch.
        self.enqueued = 0.0
        #: ``batcher.wait`` span of the queued request (None when unsampled).
        self.wait_span: Span | None = None
        #: Set once a batch carries the request: the batch then settles the claim.
        self.dispatched = False
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def answered(self, completion: Completion) -> None:
        """Count one completion sent into the plan (a hit or a batch's)."""
        self.calls += 1
        self.prompt_tokens += completion.prompt_tokens
        self.completion_tokens += completion.completion_tokens

    def finished(self, value: Any) -> None:
        """The plan returned ``value``."""

    def failed(self, error: BaseException) -> None:
        """The plan raised ``error``, or a batch carrying its request failed."""


class LLMThreads:
    """The thread batches run on: one daemon thread taking jobs in order.

    A job is a plain callable that reports its own outcome (a batch posts
    its landing to the loop): no future per batch, and none of the idle-thread
    bookkeeping a ``ThreadPoolExecutor`` does on every ``submit``.
    """

    def __init__(self, name: str):
        self._jobs: queue.SimpleQueue[Callable[[], None] | None] = queue.SimpleQueue()
        self._closed = False
        self._thread = threading.Thread(target=self._work, name=name, daemon=True)
        self._thread.start()

    def submit(self, job: Callable[[], None]) -> None:
        if self._closed:
            raise RuntimeError("cannot run a job after shutdown")
        self._jobs.put(job)

    def shutdown(self, wait: bool = True) -> None:
        """Take no more jobs, drop those not yet started, and stop the
        thread once its running job is done (joined when ``wait``)."""
        self._closed = True
        self._jobs.put(None)
        if wait and self._thread is not threading.current_thread():
            self._thread.join()

    def _work(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            if not self._closed:
                job()


class MicroBatcher:
    """Steps plans and coalesces their misses, oldest ticket first, into batched LLM calls.

    Must be used from a single running event loop; its batches execute on
    ``executor``, one at a time.  A batch is one job on it, which posts its
    own landing back to the loop.  ``max_batch_size`` and ``max_wait`` come
    checked from an :class:`~repro.serving.engine.EngineConfig`.
    """

    def __init__(
        self,
        llm: LanguageModel,
        executor: LLMThreads,
        max_batch_size: int,
        max_wait: float,
        metrics: MetricsRegistry | None = None,
    ):
        self.llm = llm
        # Found on the backend object, not declared on LanguageModel: a
        # wrapper that forwards unknown attributes to its inner model keeps
        # offering what the inner one offers, and a backend with no cache
        # offers none of them.  A backend that keys prompts offers all four;
        # one that persists its misses after a batch offers ``persist``.
        self._key: Callable[[str], bytes] | None = getattr(llm, "key", None)
        if self._key is not None:
            self._cached: Callable[..., Completion | None]
            self._cached = llm.cached  # type: ignore[attr-defined]
            self._claim: Callable[[bytes, object], Claim] = llm.claim  # type: ignore[attr-defined]
            self._release: Callable[..., None] = llm.release  # type: ignore[attr-defined]
        self._persist: Callable[[], None] | None = getattr(llm, "persist", None)
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        # Metric handles resolved once (the registry lock must stay off the
        # per-prompt path).
        metrics = metrics or get_default_registry()
        self._m_requests = metrics.counter("batcher.requests")
        self._m_cached = metrics.counter("batcher.cached")
        self._m_awaited = metrics.counter("batcher.awaited")
        self._m_batches = metrics.counter("batcher.batches")
        self._m_flush = {
            reason: metrics.counter(f"batcher.flush.{reason}")
            for reason in ("size", "idle", "timeout")
        }
        self._m_queue_wait = metrics.histogram("batcher.queue_wait")
        self._executor = executor
        self._loop: asyncio.AbstractEventLoop | None = None
        #: The batch on the LLM thread (until it lands or close()); the owner
        #: reads it, and changes it never.
        self.in_flight: list[Walk] | None = None
        self._pending: list[Walk] = []
        self._generation = 0  # bumped by every queued request
        self._idle_armed = False
        self._timer: asyncio.TimerHandle | None = None
        #: ``perf_counter`` when a caller was answered, until a run arrives.
        self._answered: float | None = None
        #: Seconds the last landed round trip took on the LLM thread.
        self._trip = 0.0
        #: The idle flush a hold put off (see the module docstring).
        self._hold: asyncio.TimerHandle | None = None
        #: Called on the loop thread as each batch leaves; set by the owner
        #: (see the module docstring).
        self.on_dispatch: Callable[[], None] | None = None

    # ----------------------------------------------------------------- owner
    def start(self, walk: Walk, request: LLMRequest | None = None) -> None:
        """Run ``walk``'s plan from its first request to its first miss.

        Called on the loop thread.  ``request`` is the plan's first request
        when the owner has stepped the plan to it already.  Hits are sent in
        at once; the miss queues (or parks on another batcher's claim); a
        plan that needs no round trip at all finishes here.
        """
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        self._advance(walk, None, request)

    def drop(self, walk: Walk) -> None:
        """Let go of a ``dead`` walk: a queued request releases its claim now
        and leaves at the next dispatch; one in flight is not delivered."""
        if not walk.dispatched and walk.request is not None:
            if walk.wait_span is not None:
                walk.wait_span.finish(status="error")
                walk.wait_span = None
            self._settle([walk], None)
            walk.claim = None

    def answered(self) -> None:
        """A run's caller was answered: it may be back within a round trip,
        so a quiet partial batch is held for it (see the module docstring)."""
        self._answered = time.perf_counter()

    def returned(self) -> None:
        """A run arrived: a hold ends now, and the idle check counts again."""
        self._answered = None
        if self._hold is not None:
            self._hold.cancel()
            self._hold = None
            self._arm()

    def close(self) -> None:
        """The loop is stopping: release every claim still held and stop
        waiting for the batch in flight (idempotent, loop thread)."""
        self._cancel_timer()
        if self.in_flight is not None:
            self._settle(self.in_flight, None)
            self.in_flight = None
        self._settle(self._pending, None)
        self._pending = []

    # ----------------------------------------------------------------- stepping
    def _advance(
        self,
        walk: Walk,
        text: str | None,
        request: LLMRequest | None = None,
        key: bytes | None = None,
    ) -> None:
        """Send ``text`` into the plan (or ask ``request``, keyed ``key``,
        again) and run it on to its next miss; see the module docstring."""
        plan = walk.plan
        keyed = self._key
        try:
            if request is None:
                request = plan.send(text)
            while True:
                claim = None
                if keyed is not None:
                    if key is None:
                        key = keyed(request.prompt)
                    hit = self._cached(request.prompt, request.kind, key)
                    if hit is not None:
                        self._m_cached.inc()
                        walk.answered(hit)
                        request, key = plan.send(hit.text), None
                        continue
                    claim = self._claim(key, self)
                    if claim.holder is not self:
                        self._park(walk, request, claim)
                        return
                self._enqueue(walk, request, claim)
                return
        except StopIteration as stop:
            walk.request = None
            walk.finished(stop.value)
        except Exception as error:
            walk.request = None
            walk.failed(error)

    def _park(self, walk: Walk, request: LLMRequest, claim: Claim) -> None:
        """Wait for another batcher's claim on ``request``, then ask again."""
        assert claim.future is not None
        self._m_awaited.inc()
        walk.request = request
        walk.claim = None
        loop = self._loop
        assert loop is not None

        def resolved(future: Any) -> None:  # on the claimant's thread
            try:
                loop.call_soon_threadsafe(self._resume, walk, request, claim)
            except RuntimeError:
                pass  # this loop is closed: the engine, and the walk, are gone

        claim.future.add_done_callback(resolved)

    def _resume(self, walk: Walk, request: LLMRequest, claim: Claim) -> None:
        if walk.dead:
            return
        error = claim.future.exception()  # type: ignore[union-attr]
        if error is not None:  # the claimant's batch failed: so does this ask
            walk.request = None
            walk.failed(error)
        else:
            self._advance(walk, None, request, claim.key)

    def _enqueue(self, walk: Walk, request: LLMRequest, claim: Claim | None) -> None:
        walk.request = request
        walk.claim = claim
        walk.dispatched = False
        walk.enqueued = time.perf_counter()
        span = walk.span
        walk.wait_span = (
            span.child("batcher.wait", {"kind": request.kind}) if span is not None else None
        )
        self._pending.append(walk)
        self._generation += 1
        self._m_requests.inc()
        # With a batch in flight the prompt just waits: that batch
        # dispatches the next one when it lands.
        if self.in_flight is None:
            if len(self._pending) >= self.max_batch_size:
                self._dispatch("size")
            elif self._timer is None or not self._idle_armed:
                self._arm()

    # ----------------------------------------------------------------- triggers
    def _arm(self) -> None:
        loop = self._loop
        assert loop is not None
        if self._timer is None:
            self._timer = loop.call_later(self.max_wait, self._flush, "timeout")
        # Two quiet loop turns: if no submission arrived by then, nothing can
        # grow the batch and waiting out max_wait would be pure latency.  One
        # check is armed at a time; a submission restarts its count.
        if not self._idle_armed:
            self._idle_armed = True
            loop.call_soon(self._idle_check, self._generation, 0)

    def _idle_check(self, generation: int, phase: int) -> None:
        loop = self._loop
        assert loop is not None
        if not self._pending:
            self._idle_armed = False
        elif generation != self._generation:
            loop.call_soon(self._idle_check, self._generation, 0)
        elif phase == 0:
            loop.call_soon(self._idle_check, generation, 1)
        else:
            self._idle_armed = False
            self._idle()

    def _idle(self) -> None:
        """Flush a quiet batch, or hold it while an answered caller may be back."""
        if self._hold is not None:
            return  # held already: the hold keeps its deadline
        if self._answered is not None and self.in_flight is None:
            wait = self._answered + min(self.max_wait, self._trip) - time.perf_counter()
            if wait > 0:
                loop = self._loop
                assert loop is not None
                self._hold = loop.call_later(wait, self._flush, "idle")
                return
        self._flush("idle")

    # ----------------------------------------------------------------- flushing
    def _flush(self, reason: str) -> None:
        """Dispatch the pending prompts of the oldest tasks, unless a batch is in flight."""
        self._cancel_timer()
        if self._pending and self.in_flight is None:
            self._dispatch(reason)

    def _dispatch(self, reason: str) -> None:
        # A walk dropped since it queued (its run failed) leaves here.  The
        # sort is stable: equal tickets keep arrival order.
        queue = [walk for walk in self._pending if not walk.dead]
        queue.sort(key=_TICKET)
        batch, self._pending = queue[: self.max_batch_size], queue[self.max_batch_size :]
        if not self._pending:
            self._cancel_timer()
        if not batch:
            return
        self._m_batches.inc()
        self._m_flush[reason].inc()
        now = time.perf_counter()
        self._m_queue_wait.observe_many([now - walk.enqueued for walk in batch])
        # One llm.call span per dispatched batch.  It is parented by the
        # first waiter's batcher.wait span — a batch belongs to all its
        # waiters, but a tree needs one parent, and the first waiter is the
        # one whose coalesce wait the batch closed out.
        first = None
        prompts, kinds = [], set()
        for walk in batch:
            walk.dispatched = True
            prompts.append(walk.request.prompt)  # type: ignore[union-attr]
            kinds.add(walk.request.kind)  # type: ignore[union-attr]
            if first is None:
                first = walk.wait_span
        kind = kinds.pop() if len(kinds) == 1 else MIXED
        if self._key is not None:  # every queued request holds a claim
            keys = [walk.claim.key for walk in batch]  # type: ignore[union-attr]
            prompts = KeyedBatch(prompts, keys)
        call: Callable[[], list[Completion]] = partial(self._call, kind, prompts)
        call_span = None
        if first is not None:
            call_span = first.child("llm.call", {"kind": kind, "batch": len(batch)})
            if call_span is not None:
                # An LLM thread does NOT inherit contextvars: run the call in
                # a context under the call span, so spans opened inside the
                # LLM stack (cache.lookup, llm.backend) nest beneath it.
                call = partial(call_span.bound_context().run, call)
        job = partial(self._execute, batch, call, call_span)
        self.in_flight = batch
        try:
            self._executor.submit(job)
        except RuntimeError as error:  # the executor is shut down: the engine is closing
            self.in_flight = None
            self._land(batch, call_span, error)
            return
        if self.on_dispatch is not None:
            self.on_dispatch()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._hold is not None:
            self._hold.cancel()
            self._hold = None

    def _settle(self, batch: list[Walk], error: BaseException | None) -> None:
        """Release the claims ``batch`` holds (see the module docstring)."""
        if self._key is not None:
            for walk in batch:
                if walk.claim is not None:
                    self._release(walk.claim, error)

    def _call(self, kind: str, prompts: list[str]) -> list[Completion]:
        """The LLM thread's side of a batch.

        A reply of the wrong length fails the whole batch: matched by
        position, its trailing waiters would otherwise stay pending for ever.
        """
        completions = self.llm.complete_batch(prompts, kind)
        if len(completions) != len(prompts):
            raise RuntimeError(
                f"backend returned {len(completions)} completions for {len(prompts)} prompts"
            )
        return completions

    # ----------------------------------------------------------------- delivery
    def _execute(
        self,
        batch: list[Walk],
        call: Callable[[], list[Completion]],
        call_span: Span | None,
    ) -> None:
        """An LLM thread's job: make the call, post its outcome to the loop —
        unless the loop is closed, and ``close`` settled the batch — and
        then persist the batch's misses while the loop delivers it."""
        completions: Sequence[Completion] = ()
        error = None
        started = time.perf_counter()
        try:
            completions = call()
        except Exception as exc:  # delivered to every waiter of the batch
            error = exc
        trip = time.perf_counter() - started
        try:
            self._loop.call_soon_threadsafe(  # type: ignore[union-attr]
                self._landed, batch, call_span, error, completions, trip
            )
        except RuntimeError:
            pass
        if self._persist is not None:
            try:
                self._persist()
            except Exception as exc:  # the entries stay staged for the next persist
                emit_event("cache.persist_failed", error=repr(exc))

    def _landed(
        self,
        batch: list[Walk],
        call_span: Span | None,
        error: BaseException | None,
        completions: Sequence[Completion],
        trip: float,
    ) -> None:
        if self.in_flight is not batch:
            return  # settled by close()
        self.in_flight = None
        self._trip = trip
        self._land(batch, call_span, error, completions)

    def _land(
        self,
        batch: list[Walk],
        call_span: Span | None,
        error: BaseException | None,
        completions: Sequence[Completion] = (),
    ) -> None:
        """Deliver a landed batch: step every live waiter to its next miss,
        then arm the idle check for the next batch."""
        self._settle(batch, error)
        if error is not None:
            if call_span is not None:
                call_span.finish(status="error")
            for walk in batch:
                if walk.wait_span is not None:
                    walk.wait_span.finish(status="error")
                if not walk.dead:
                    walk.request = None
                    walk.failed(error)
        else:
            if call_span is not None:
                call_span.finish()
            for walk, completion in zip(batch, completions):
                if walk.wait_span is not None:
                    walk.wait_span.finish(status="error" if walk.dead else None)
                if not walk.dead:
                    walk.answered(completion)
                    self._advance(walk, completion.text)
        if self._pending:
            self._arm()


__all__ = ["LLMThreads", "MIXED", "MicroBatcher", "Walk"]
