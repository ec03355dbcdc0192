"""The resident, batched execution engine.

``ExecutionEngine.run(pipeline, tasks)`` is the one way into the engine.  It
executes many task instances concurrently: each admitted task is a
:class:`~repro.serving.batcher.Walk` over the pipeline's one plan,
:meth:`~repro.core.pipeline.UniDM.plan` (Algorithm 1: retrieval → parsing →
target prompt → answer), and the :class:`~repro.serving.batcher.MicroBatcher`
steps every plan itself — to its first miss at admission, and on to the
next miss in the step that delivers a batch — coalescing prompts across
tasks, whatever their kinds, into batched calls.  No coroutine, asyncio task
or future is made per task or per prompt.  A task that finishes returns its
slot in that same step; the tasks waiting for slots are admitted one loop
turn later, as one step.  ``run`` returns the results only; what the batcher
did is counted on the engine's metrics registry (``batcher.*``).  A task
keeps no meter of its own: its ``engine.task`` span carries its kind, and
the caller's batch is timed by whoever called (``service.batch_latency``).

**Planned while the backend works.**  A plan is a pure function of its task,
so the engine plans ahead: one loop turn after a batcher dispatches a batch,
while that batch is in flight, it steps the tasks the next admissions will
take — up to ``max_batch_size``, picked with a non-mutating
:meth:`~repro.tenancy.WeightedFairQueue.peek` — to their first request, one
task a loop turn, and stops when the batch lands.  Nothing else moves: a
task still takes its slot, ticket and ``engine.task`` span when the fair
queue pops it, and then starts from its prepared request instead of
planning in the gap between one round trip and the next.  The depth is
derived from ``max_batch_size``, not configured.

The engine is **resident**: the first ``run`` starts one daemon event-loop
thread (``repro-engine``), one LLM thread (``repro-llm``) and one batcher per
backend, each with at most one batch in flight on that thread; every later
``run`` — from any number of threads at once: TCP connections,
``Client.local``, the flow executor, a cluster worker — hands its tasks to
that loop and waits.  Tasks of all
callers wait for one of the ``workers`` slots in **one admission order**
(weighted-fair across tenants, priority then arrival within one — the
:class:`~repro.tenancy.WeightedFairQueue`, cost 1 per task), each draws a
ticket as it is admitted, and their prompts meet in the one batcher, which
serves the oldest ticket first.  The engine tells its batchers when it
answers a run and when the next run arrives: a caller just answered is
usually back within a round trip, and a quiet batch is held for it (see
:mod:`repro.serving.batcher`).  ``close()`` stops the threads; an engine
nobody closes is stopped when it is garbage-collected.

Determinism contract: the pipeline is a pure function of ``(seed, task)``
given its completions, so the engine issues exactly the prompts a lone
``UniDM.run(task)`` would, at any batch size / worker count and whoever else
is running.  Completions are a pure function of the prompt for every backend
except the bare ``SimulatedLLM``, whose noise stream is call-order state
(known gap, see ROADMAP) — behind a filled cache it, too, replays exactly.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import threading
import weakref
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Iterable

from ..core.plan import LLMRequest, Plan
from ..core.types import PromptTrace, TaskType
from ..llm.base import UsageDelta
from ..obs.metrics import MetricsRegistry, get_default_registry
from ..obs.span import Span, span
from ..tenancy.fairqueue import DEFAULT_TENANT, WeightedFairQueue
from .batcher import LLMThreads, MicroBatcher, Walk

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import UniDM
    from ..core.tasks.base import Task
    from ..core.types import ManipulationResult

#: Whose work the calling thread's next ``run`` is, for slot admission:
#: ``(tenant, weight, priority)``.  The service sets it around each admitted
#: group; ``run`` reads it from the caller's context (its signature is fixed).
SHARE: contextvars.ContextVar[tuple[str, float, int]] = contextvars.ContextVar(
    "repro_engine_share", default=(DEFAULT_TENANT, 1.0, 0)
)

#: The ``kind`` attr of a task's ``engine.task`` span.
_KIND = {task_type: task_type.name.lower() for task_type in TaskType}


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the execution engine."""

    #: Maximum number of prompts, of any kinds, coalesced into one LLM call.
    max_batch_size: int = 8
    #: Upper bound (seconds) a pending prompt waits for batch-mates.  The
    #: idle trigger usually sends a batch sooner; a batch held for a caller
    #: the engine just answered waits at most ``min(max_wait, last round
    #: trip)`` for its next run (see :mod:`repro.serving.batcher`).
    max_wait: float = 0.002
    #: Maximum number of tasks in flight at once (backpressure).
    workers: int = 8

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.max_wait < 0:
            raise ValueError("max_wait must be non-negative")


@dataclass(eq=False)
class _Run:
    """One ``run`` call: loop-thread state, except ``future`` (the caller waits on it)."""

    pipeline: "UniDM"
    tasks: "list[Task]"
    #: The caller's context: every task's span begins inside it, so the
    #: ``engine.run`` span and a wire-carried trace parent per-task spans.
    context: contextvars.Context
    share: tuple[str, float, int]
    results: "list[ManipulationResult | None]"
    future: "Future[list[ManipulationResult]]" = field(default_factory=Future)
    batcher: MicroBatcher | None = None
    #: Tasks admitted and not yet ended.
    live: "set[_Task]" = field(default_factory=set)
    #: index -> ``(plan, trace, first request)`` of a waiting task planned
    #: ahead, or ``None`` if its first step raised (it is planned again at
    #: admission, to the same end).
    prepared: "dict[int, tuple[Plan, PromptTrace, LLMRequest] | None]" = field(
        default_factory=dict
    )
    #: Tasks the fair queue has popped: a run's tasks pop in index order
    #: (one tenant, one priority, arrival order), so an index below this
    #: one waits no longer.
    popped: int = 0
    done: int = 0
    error: BaseException | None = None


class _Task(Walk):
    """One admitted task: its plan, stepped by the batcher, in one slot."""

    __slots__ = ("resident", "run", "index", "trace")

    def __init__(
        self,
        resident: "_Resident",
        run: _Run,
        index: int,
        ticket: int,
        prepared: "tuple[Plan, PromptTrace, LLMRequest] | None",
    ):
        task = run.tasks[index]
        span = run.context.run(
            Span.begin, "engine.task", attrs={"kind": _KIND[task.task_type], "index": index}
        )
        if prepared is None:
            trace = PromptTrace()
            plan = run.pipeline.plan(task, trace)
        else:
            plan, trace, _ = prepared
        super().__init__(plan, ticket, span)
        self.resident = resident
        self.run = run
        self.index = index
        self.trace = trace

    def finished(self, value: Any) -> None:
        run = self.run
        usage = UsageDelta(self.calls, self.prompt_tokens, self.completion_tokens)
        try:
            result = run.pipeline.finish(run.tasks[self.index], value, self.trace, usage)
        except Exception as error:
            self.failed(error)
            return
        run.results[self.index] = result
        self.resident._end(self, None)
        run.done += 1
        if run.done == len(run.tasks):
            self.resident._resolve(run)

    def failed(self, error: BaseException) -> None:
        self.resident._end(self, "error")
        self.resident._fail(self.run, error)


class _Resident:
    """The threads and loop-side state behind one engine.

    Holds no reference to its :class:`ExecutionEngine`, so an engine nobody
    closes can be collected and its finalizer can call :meth:`close`.
    Everything but ``submit``/``close`` runs on the loop thread.
    """

    def __init__(self, config: EngineConfig, metrics: MetricsRegistry):
        self._config = config
        self._metrics = metrics
        self._executor = LLMThreads("repro-llm")
        #: One batcher per backend object: pipelines may be swapped under a
        #: service, and several may share the engine.  Kept for the engine's
        #: life (the batcher pins its backend, so an ``id`` is never reused).
        self._batchers: dict[int, MicroBatcher] = {}
        self._waiting = WeightedFairQueue()  # (run, index) awaiting a slot
        self._free = config.workers
        self._admitting = False  # an _admit is scheduled
        self._preparing = False  # a _prepare is scheduled
        self._tickets = itertools.count(1)
        self._runs: set[_Run] = set()
        self._lock = threading.Lock()  # orders submit against close
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._serve, name="repro-engine", daemon=True
        )
        self.thread.start()

    def _serve(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            for batcher in self._batchers.values():
                batcher.close()
            loop.close()

    # ----------------------------------------------------------- any thread
    def submit(self, pipeline: "UniDM", tasks: "list[Task]") -> _Run:
        """Queue ``tasks`` for slots; the caller waits on the run's future."""
        if threading.current_thread() is self.thread:
            raise RuntimeError(
                "ExecutionEngine.run called from the engine's own loop thread: "
                "it would wait for tasks only this thread can execute"
            )
        run = _Run(
            pipeline,
            tasks,
            contextvars.copy_context(),
            SHARE.get(),
            [None] * len(tasks),
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("ExecutionEngine was closed during run")
            self._loop.call_soon_threadsafe(self._enqueue, run)
        return run

    def close(self, wait: bool = True) -> None:
        """Fail what is running and stop the threads (idempotent).

        ``wait=False`` is the finalizer's form: it may run on any thread —
        the loop's or the LLM's own included — so it joins nothing.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._loop.call_soon_threadsafe(self._shutdown)
        if wait:
            self.thread.join()
        self._executor.shutdown(wait=wait)

    # ----------------------------------------------------------- loop thread
    def _shutdown(self) -> None:
        for run in list(self._runs):
            self._fail(run, RuntimeError("ExecutionEngine was closed during run"))
        self._loop.stop()

    def _enqueue(self, run: _Run) -> None:
        self._runs.add(run)
        for batcher in self._batchers.values():
            batcher.returned()  # a caller is back: no batch waits for one now
        run.batcher = self._batcher_for(run.pipeline.llm)
        tenant, weight, priority = run.share
        for index in range(len(run.tasks)):
            self._waiting.push(
                (run, index), tenant=tenant, weight=weight, priority=priority
            )
        self._admit()

    def _batcher_for(self, llm: Any) -> MicroBatcher:
        batcher = self._batchers.get(id(llm))
        if batcher is None:
            batcher = self._batchers[id(llm)] = MicroBatcher(
                llm,
                self._executor,
                self._config.max_batch_size,
                self._config.max_wait,
                self._metrics,
            )
            batcher.on_dispatch = partial(self._dispatched, batcher)
        return batcher

    def _admit(self) -> None:
        """Hand free slots to waiting tasks in the one admission order; each
        is stepped to its first miss at once."""
        self._admitting = False
        while self._free:
            try:
                run, index = self._waiting.pop()
            except IndexError:
                break  # nothing waits
            run.popped = index + 1
            if run.error is not None:
                continue  # its run already failed; the slot goes to the next
            self._free -= 1
            prepared = run.prepared.pop(index, None)
            task = _Task(self, run, index, next(self._tickets), prepared)
            run.live.add(task)
            first = None if prepared is None else prepared[2]
            run.batcher.start(task, first)  # type: ignore[union-attr]

    def _dispatched(self, batcher: MicroBatcher) -> None:
        """``batcher`` sent a batch: plan ahead a loop turn later, while it
        is in flight (see the module docstring)."""
        if self._waiting and not self._preparing:
            self._preparing = True
            self._loop.call_soon(self._prepare, batcher, None)

    def _prepare(self, batcher: MicroBatcher, queue: "list | None") -> None:
        """Step one waiting task to its first request, and come back a loop
        turn later for the next, while ``batcher``'s batch is in flight.

        ``queue`` is what is left of the peek the pass began with, nearest
        last.  A task already prepared or admitted since, or whose run
        failed, is passed over.
        """
        self._preparing = False
        if batcher.in_flight is None:
            return  # landed: the next admissions are on the critical path now
        if queue is None:
            queue = self._waiting.peek(self._config.max_batch_size)
            queue.reverse()
        while queue:
            run, index = queue.pop()
            if run.error is None and index >= run.popped and index not in run.prepared:
                trace = PromptTrace()
                plan = run.pipeline.plan(run.tasks[index], trace)
                try:
                    run.prepared[index] = (plan, trace, plan.send(None))
                except Exception:  # StopIteration too: the admission replays it
                    run.prepared[index] = None
                break
        if queue:
            self._preparing = True
            self._loop.call_soon(self._prepare, batcher, queue)

    def _fail(self, run: _Run, error: BaseException) -> None:
        """First failure wins: the run's other tasks are dropped, their slots
        returned, and the run resolves with ``error``."""
        if run.error is None:
            run.error = error
            run.prepared.clear()
            for task in list(run.live):
                self._end(task, "error")
                run.batcher.drop(task)  # type: ignore[union-attr]
        self._resolve(run)

    def _resolve(self, run: _Run) -> None:
        """Answer ``run``'s caller (once), and tell the batchers one was
        answered: its next run may be on its way."""
        self._runs.discard(run)
        if run.future.done():
            return
        if run.error is not None:
            run.future.set_exception(run.error)
        else:
            run.future.set_result(list(run.results))  # type: ignore[arg-type]
        for batcher in self._batchers.values():
            batcher.answered()

    def _end(self, task: _Task, status: str | None) -> None:
        """Return ``task``'s slot (the next admission runs a loop turn later)
        and close its span; the batcher steps it no more."""
        task.dead = True
        task.run.live.discard(task)
        self._free += 1
        if not self._admitting:
            self._admitting = True
            self._loop.call_soon(self._admit)
        if task.span is not None:
            task.span.finish(status=status)


class ExecutionEngine:
    """Executes iterables of tasks through a UniDM pipeline, micro-batched.

    ``run`` is synchronous and may be called from any number of threads at
    once; all of them share the engine's one loop, slots and batcher.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config or EngineConfig()
        self._metrics = metrics or get_default_registry()
        self._lock = threading.Lock()
        self._resident: _Resident | None = None
        self._finalizer: weakref.finalize | None = None

    def _started(self) -> _Resident:
        with self._lock:
            if self._resident is None:
                self._resident = _Resident(self.config, self._metrics)
                self._finalizer = weakref.finalize(
                    self, self._resident.close, wait=False
                )
            return self._resident

    # ------------------------------------------------------------------ running
    def run(
        self, pipeline: "UniDM", tasks: Iterable["Task"]
    ) -> "list[ManipulationResult]":
        """Execute ``tasks`` and return their results in input order.

        A failing task cancels the run's other tasks and its exception is
        raised here; other callers' runs are not affected.
        """
        task_list = list(tasks)
        if not task_list:
            return []
        # The run's context is copied inside the span, so the engine.run span
        # (and any wire-carried trace above it) parents every per-task span.
        with span("engine.run", tasks=len(task_list)):
            return self._started().submit(pipeline, task_list).future.result()

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the engine's threads (idempotent).

        Runs still in flight fail with ``RuntimeError``.  A later ``run``
        starts fresh threads, so whoever shares the engine need not agree on
        who closes it last.
        """
        with self._lock:
            resident, self._resident = self._resident, None
            finalizer, self._finalizer = self._finalizer, None
        if resident is not None and finalizer is not None:
            finalizer.detach()
            resident.close()
