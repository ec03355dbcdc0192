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
What the loop thread may touch is bounded by the hit path: the cache's short
state lock (never held across a backend call), behind it the persistent
store's lock for at most one append the LLM thread is making
(``pcache.put_us``, 60–90 µs), and one route-index append the first time a
given spec asks a given stored prompt (a replayed spec: never).  A miss's
route note — a file append under the store's lock — is made on the LLM
thread, at dispatch.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from collections import Counter, defaultdict
from concurrent.futures import Executor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

from ..llm.base import Completion, LanguageModel
from ..obs.export import get_default_exemplars
from ..obs.metrics import MetricsRegistry, SIZE_BUCKETS, get_default_registry
from ..obs.span import Span
from ..obs.trace import Trace

#: The label a batch goes down under when its prompts do not share a kind.
MIXED = "mixed"


@dataclass(eq=False)  # identity-hashed: batches are counted per run's stats object
class BatcherStats:
    """Counters describing how well coalescing worked.

    The batcher's own ``stats`` count every batch it dispatched; a run's
    stats (:attr:`Origin.stats`) count that run's prompts only, and each
    batch that carried at least one of them.  A *request* is a prompt that
    asked for a seat in a batch; one answered from the cache at submission
    is counted under ``cached`` instead.  ``by_kind`` counts both.
    """

    requests: int = 0
    batches: int = 0
    max_batch: int = 0
    cached: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    def note(self, kinds: Mapping[str, int], batch_size: int | None = None) -> None:
        """Count one batch: ``kinds`` are our prompts in it, ``batch_size`` all."""
        prompts = sum(kinds.values())
        self.requests += prompts
        self.batches += 1
        self.max_batch = max(self.max_batch, batch_size or prompts)
        for kind, count in kinds.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + count

    def note_cached(self, kind: str) -> None:
        """Count one prompt answered from the cache at submission."""
        self.cached += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


@dataclass(frozen=True)
class Origin:
    """What a prompt inherits from the task that issued it."""

    #: Spec (route) key — the attribution the cluster's shard-migration path
    #: needs, captured here because this is the last layer where a prompt
    #: still belongs to exactly one task (batches mix tasks).
    route: str | None = None
    #: The task's place in the engine's admission order (lower = older).
    ticket: int = 0
    #: The counters of the ``run`` the task belongs to.
    stats: BatcherStats | None = None


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
        # (or no route index) offers neither.
        self._cached: Callable[[str, str], Completion | None] | None = getattr(
            llm, "cached", None
        )
        self._note_route: Callable[[str, str], None] | None = getattr(
            llm, "note_route", None
        )
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.stats = BatcherStats()
        # Metric handles resolved once (the registry lock must stay off the
        # per-submission path).
        metrics = metrics or get_default_registry()
        self._m_requests = metrics.counter("batcher.requests")
        self._m_cached = metrics.counter("batcher.cached")
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
        submitting task's span via the ambient context).
        """
        origin = ORIGIN.get()
        if self._cached is not None:
            hit = self._cached(prompt, kind)
            if hit is not None:
                # The route index stays complete for hits too: idempotent,
                # and a file append only the first time this spec asks.
                if self._note_route is not None and origin.route is not None:
                    self._note_route(prompt, origin.route)
                self.stats.note_cached(kind)
                if origin.stats is not None:
                    origin.stats.note_cached(kind)
                self._m_cached.inc()
                return hit
        loop = asyncio.get_running_loop()
        wait_span = Span.begin("batcher.wait", attrs={"kind": kind})
        request = _Request(
            prompt, kind, loop.create_future(), origin, time.perf_counter(), wait_span
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
        kinds = Counter(request.kind for request in batch)
        self.stats.note(kinds)
        runs: defaultdict[BatcherStats, Counter[str]] = defaultdict(Counter)
        for request in batch:
            if request.origin.stats is not None:
                runs[request.origin.stats][request.kind] += 1
        for stats, ours in runs.items():
            stats.note(ours, len(batch))
        self._m_batches.inc()
        self._m_flush[reason].inc()
        self._m_batch_size.observe(len(batch))
        now = time.perf_counter()
        for request in batch:
            self._m_queue_wait.observe(now - request.enqueued)
        self._inflight += 1
        kind = next(iter(kinds)) if len(kinds) == 1 else MIXED
        task = loop.create_task(self._execute(loop, kind, batch))
        self._executing.add(task)
        task.add_done_callback(self._executing.discard)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _call(self, kind: str, batch: list[_Request]) -> list[Completion]:
        """The LLM thread's side of a batch: note routes, then complete.

        The route is recorded before the entry is stored, so a crash between
        the two leaves an attribution without an entry, never the reverse.
        A reply of the wrong length fails the whole batch: matched by
        position, its trailing waiters would otherwise stay pending for ever.
        """
        if self._note_route is not None:
            for request in batch:
                if request.origin.route is not None:
                    self._note_route(request.prompt, request.origin.route)
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
        try:
            try:
                completions = await loop.run_in_executor(self._executor, call)
            finally:
                self._inflight -= 1
        except Exception as exc:  # propagate to every waiter of this batch
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
        # Deliver first, dispatch second: the waiters just resolved get the
        # idle check's two turns to submit their next prompt before the
        # freed thread is handed the oldest tasks' prompts.
        if self._pending:
            self._arm(loop)
