"""Micro-batching scheduler for LLM calls.

Concurrent task executions each need small, latency-sensitive LLM calls.  The
:class:`MicroBatcher` sits between the async task coroutines and the
synchronous :class:`~repro.llm.base.LanguageModel`: coroutines ``submit()``
individual prompts and await their completions, while the batcher coalesces
pending prompts — of any kinds — into one ``complete_batch`` call.

One batcher serves every caller of a resident
:class:`~repro.serving.engine.ExecutionEngine`, so *when* it dispatches
decides how full each backend round trip is.  The rule:

* **Hits never queue.**  ``submit`` first asks the backend for a stored
  answer (``cached(prompt, kind)``, where the backend offers it — a
  :class:`~repro.llm.cache.CachedLLM` does).  A hit is returned at once, on
  the loop thread, without suspending the coroutine: no queue entry, no seat
  in a batch, no wait for the round trip in flight — so only misses ride
  round trips, and a task whose next prompts are all stored runs on to its
  next miss in one loop step.  A hit is not a submission for the triggers
  below: it can never join a batch.
* **A miss is computed once.**  Where the backend offers claims
  (``claim``/``release``), a miss is claimed for this batcher before it
  queues.  A prompt another batcher holds (another worker's engine, in a
  cluster) is awaited, not queued, and then answered by ``cached``; this
  batcher's own repeated asks queue as they always did.  The claim is
  released when the request ends, with the batch's exception if it failed.
* **Hold while busy.**  While every LLM thread (``llm_threads``) is executing
  a batch nothing is dispatched — no trigger fires; pending prompts keep
  collecting batch-mates.  The batch in flight is the progress guarantee.
* **Deliver, then dispatch.**  When a batch lands its waiters are resolved
  first and get the idle check's two loop turns to submit their next prompt;
  only then is the freed thread given the next batch.
* **Oldest admitted task first, whatever the kind.**  Every prompt carries
  the ticket its task drew when the engine admitted it (:data:`ORIGIN`); a
  freed thread takes the ``max_batch_size`` pending prompts that hold the
  lowest tickets (equal tickets in arrival order).  A younger task's prompt
  never leaves before an older one's, and tasks at different stages of their
  chains fill one round trip together.  ``kind`` only labels the backend's
  accounting: a batch goes down under its prompts' common kind, or as
  :data:`MIXED`; completions are matched to waiters by position.

With a free thread a batch is dispatched when the first of three triggers
fires:

* **size** — ``max_batch_size`` prompts are pending;
* **idle** — the event loop drains its ready queue without any new
  submission arriving (every in-flight task is blocked), so waiting longer
  cannot grow the batch;
* **timeout** — ``max_wait`` seconds elapsed since the oldest pending prompt
  (the formal progress guarantee behind the idle heuristic).

Batches execute on a worker thread pool so the event loop stays responsive.
What the loop thread may touch is bounded by the hit path: a cache's short
state lock (never held across a backend call), and behind it the persistent
store's lock for at most one append an LLM thread is making
(``pcache.put_us``, 60–90 µs).
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..llm.base import Completion, LanguageModel
from ..llm.cache import Claim
from ..obs.export import get_default_exemplars
from ..obs.metrics import MetricsRegistry, SIZE_BUCKETS, get_default_registry
from ..obs.span import Span
from ..obs.trace import Trace

#: The label a batch goes down under when its prompts do not share a kind.
MIXED = "mixed"


@dataclass(frozen=True)
class Origin:
    """What a prompt inherits from the task that issued it."""

    #: The task's place in the engine's admission order (lower = older).
    ticket: int = 0


#: The origin of the task currently executing, set by the engine inside each
#: task coroutine; ``submit`` reads it once per prompt.
ORIGIN: contextvars.ContextVar[Origin] = contextvars.ContextVar(
    "repro_prompt_origin", default=Origin()
)


@dataclass
class _Request:
    prompt: str
    kind: str
    future: "asyncio.Future[Completion]"
    origin: Origin
    #: ``perf_counter`` at submission; queue wait is measured at dispatch.
    enqueued: float = 0.0
    #: ``batcher.wait`` span opened at submission (None when unsampled).
    span: "Span | None" = None
    #: The claim this request holds at the prompt's owner, if any.
    claim: "Claim | None" = None
    #: Set once a batch carries it: the batch then settles the claim.
    dispatched: bool = False


class MicroBatcher:
    """Coalesces concurrent prompts, oldest ticket first, into batched LLM calls.

    Must be used from a single running event loop; batch execution happens on
    ``executor`` (falls back to the loop's default executor when ``None``),
    at most ``llm_threads`` batches at a time.
    """

    def __init__(
        self,
        llm: LanguageModel,
        max_batch_size: int = 8,
        max_wait: float = 0.002,
        executor: Executor | None = None,
        metrics: MetricsRegistry | None = None,
        llm_threads: int = 1,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if llm_threads < 1:
            raise ValueError("llm_threads must be positive")
        self.llm = llm
        # Found on the backend object, not declared on LanguageModel: a
        # wrapper that forwards unknown attributes to its inner model keeps
        # offering what the inner one offers, and a backend with no cache
        # offers none of them.
        self._cached: Callable[[str, str], Completion | None] | None = getattr(
            llm, "cached", None
        )
        self._claim: Callable[[str, object], Claim] | None = getattr(llm, "claim", None)
        self._release: Callable[..., None] | None = getattr(llm, "release", None)
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        # Metric handles resolved once (the registry lock must stay off the
        # per-submission path).
        metrics = metrics or get_default_registry()
        self._m_requests = metrics.counter("batcher.requests")
        self._m_cached = metrics.counter("batcher.cached")
        self._m_awaited = metrics.counter("batcher.awaited")
        self._m_batches = metrics.counter("batcher.batches")
        self._m_flush = {
            reason: metrics.counter(f"batcher.flush.{reason}")
            for reason in ("size", "idle", "timeout")
        }
        self._m_batch_size = metrics.histogram("batcher.batch_size", SIZE_BUCKETS)
        self._m_queue_wait = metrics.histogram("batcher.queue_wait")
        self._m_latency = metrics.histogram("batcher.llm_latency")
        self._executor = executor
        self._llm_threads = llm_threads
        self._inflight = 0  # batches executing on the LLM threads
        self._executing: set[asyncio.Task[None]] = set()
        self._pending: list[_Request] = []
        self._generation = 0
        self._timer: asyncio.TimerHandle | None = None

    # ----------------------------------------------------------------- client
    async def submit(self, prompt: str, kind: str = "other") -> Completion:
        """Answer one prompt: from the cache at once, else from a batch.

        A prompt the backend has stored is returned without suspending (see
        the module docstring); it did not wait, so it gets no span and no
        ``queue_wait`` observation.  Any other is enqueued, and its whole
        stay in the batcher — coalesce wait plus the batched LLM call — is
        timed under a per-request ``batcher.wait`` span (parented by the
        submitting task's span via the ambient context).  A miss another
        batcher has claimed is awaited, not queued (see the module docstring).
        """
        claim = None
        if self._cached is not None:
            while True:
                hit = self._cached(prompt, kind)
                if hit is not None:
                    self._m_cached.inc()
                    return hit
                if self._claim is None:
                    break
                claim = self._claim(prompt, self)
                if claim.holder is self:
                    break
                assert claim.future is not None
                self._m_awaited.inc()
                # Shielded: a cancelled waiter must not cancel the future
                # other waiters share.  A failed claim raises its error.
                await asyncio.shield(asyncio.wrap_future(claim.future))
                claim = None
        loop = asyncio.get_running_loop()
        wait_span = Span.begin("batcher.wait", attrs={"kind": kind})
        request = _Request(
            prompt,
            kind,
            loop.create_future(),
            ORIGIN.get(),
            time.perf_counter(),
            wait_span,
            claim,
        )
        self._pending.append(request)
        self._generation += 1
        self._m_requests.inc()
        # With every thread busy the prompt just waits: the batch in flight
        # dispatches the next one when it lands.
        if self._inflight < self._llm_threads:
            if len(self._pending) >= self.max_batch_size:
                self._dispatch(loop, reason="size")
            else:
                self._arm(loop)
        try:
            completion = await request.future
        except BaseException:
            if wait_span is not None:
                wait_span.finish(status="error")
            if not request.dispatched:  # ended without a batch
                self._settle([request], None)
            raise
        if wait_span is not None:
            wait_span.finish()
        return completion

    # ----------------------------------------------------------------- triggers
    def _arm(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._timer is None:
            self._timer = loop.call_later(self.max_wait, partial(self._flush, loop))
        # Two call_soon hops let every currently-runnable coroutine advance to
        # its next await; if no new submission arrived by then, nothing can
        # grow the batch and waiting out max_wait would be pure latency.
        loop.call_soon(self._idle_check, loop, self._generation, 0)

    def _idle_check(
        self, loop: asyncio.AbstractEventLoop, generation: int, phase: int
    ) -> None:
        if generation != self._generation or not self._pending:
            return  # superseded by a newer submission, or nothing to do
        if phase == 0:
            loop.call_soon(self._idle_check, loop, generation, 1)
        else:
            self._flush(loop, reason="idle")

    # ----------------------------------------------------------------- flushing
    def _flush(self, loop: asyncio.AbstractEventLoop, reason: str = "timeout") -> None:
        """Give each free LLM thread the pending prompts of the oldest tasks."""
        self._cancel_timer()
        while self._pending and self._inflight < self._llm_threads:
            self._dispatch(loop, reason)

    def _dispatch(self, loop: asyncio.AbstractEventLoop, reason: str) -> None:
        # A waiter cancelled since it submitted (its run failed) drops out
        # here.  The sort is stable: equal tickets keep arrival order.
        live = (r for r in self._pending if not r.future.done())
        queue = sorted(live, key=lambda r: r.origin.ticket)
        batch, self._pending = queue[: self.max_batch_size], queue[self.max_batch_size :]
        if not self._pending:
            self._cancel_timer()
        if not batch:
            return
        self._m_batches.inc()
        self._m_flush[reason].inc()
        self._m_batch_size.observe(len(batch))
        now = time.perf_counter()
        for request in batch:
            request.dispatched = True
            self._m_queue_wait.observe(now - request.enqueued)
        self._inflight += 1
        kinds = {request.kind for request in batch}
        kind = kinds.pop() if len(kinds) == 1 else MIXED
        task = loop.create_task(self._execute(loop, kind, batch))
        self._executing.add(task)
        task.add_done_callback(partial(self._executed, batch))

    def _executed(self, batch: list[_Request], task: "asyncio.Task[None]") -> None:
        self._executing.discard(task)
        if task.cancelled():  # the engine closed, maybe before the task started
            self._settle(batch, None)  # its claims' waiters claim again

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _settle(self, batch: list[_Request], error: BaseException | None) -> None:
        """Release the claims ``batch`` holds (see the module docstring)."""
        if self._release is not None:
            for request in batch:
                if request.claim is not None:
                    self._release(request.prompt, request.claim, error)

    def _call(self, kind: str, batch: list[_Request]) -> list[Completion]:
        """The LLM thread's side of a batch.

        A reply of the wrong length fails the whole batch: matched by
        position, its trailing waiters would otherwise stay pending for ever.
        """
        completions = self.llm.complete_batch([request.prompt for request in batch], kind)
        if len(completions) != len(batch):
            raise RuntimeError(
                f"backend returned {len(completions)} completions for {len(batch)} prompts"
            )
        return completions

    async def _execute(
        self, loop: asyncio.AbstractEventLoop, kind: str, batch: list[_Request]
    ) -> None:
        # One llm.call span per dispatched batch.  It is parented by the
        # first waiter's batcher.wait span — a batch belongs to all its
        # waiters, but a tree needs one parent, and the first waiter is the
        # one whose coalesce wait the batch closed out.
        first_span = next(
            (request.span for request in batch if request.span is not None), None
        )
        call_span = (
            Span.begin(
                "llm.call",
                trace_id=first_span.trace_id,
                parent_id=first_span.span_id,
                attrs={"kind": kind, "batch": len(batch)},
            )
            if first_span is not None
            else None
        )
        call: Callable[[], list[Completion]] = partial(self._call, kind, batch)
        if call_span is not None:
            # run_in_executor does NOT propagate contextvars; capture the
            # context under the call span so spans opened inside the LLM
            # stack (cache.lookup, llm.backend) nest beneath it.
            with call_span.bind():
                call = partial(contextvars.copy_context().run, call)
        started = time.perf_counter()
        error: BaseException | None = None
        try:
            try:
                completions = await loop.run_in_executor(self._executor, call)
            finally:
                self._inflight -= 1
        except Exception as exc:  # propagate to every waiter of this batch
            error = exc
            if call_span is not None:
                call_span.finish(status="error")
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        else:
            self._m_latency.observe(time.perf_counter() - started)
            get_default_exemplars().note("batcher.llm_latency", Trace.current_id())
            if call_span is not None:
                call_span.finish()
            for request, completion in zip(batch, completions):
                if not request.future.done():
                    request.future.set_result(completion)
        self._settle(batch, error)
        # Deliver first, dispatch second: the waiters just resolved get the
        # idle check's two turns to submit their next prompt before the
        # freed thread is handed the oldest tasks' prompts.
        if self._pending:
            self._arm(loop)
