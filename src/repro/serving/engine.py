"""The resident, batched async execution engine.

``ExecutionEngine.run(pipeline, tasks)`` executes many task instances
concurrently: each task becomes a coroutine walking the pipeline's plan stages
(meta-retrieval → instance-retrieval → parsing → answer, see
:mod:`repro.serving.stages`) and every LLM call funnels through a
:class:`~repro.serving.batcher.MicroBatcher`, which coalesces prompts
across tasks — whatever their kinds — into batched calls.

The engine is **resident**: the first ``run`` starts one daemon event-loop
thread (``repro-engine``), one LLM executor (``repro-llm``, ``llm_threads``
wide) and one batcher per backend, and every later ``run`` — from any number
of threads at once: TCP connections, ``Client.local``, the flow executor, a
cluster worker — hands its tasks to that loop and waits.  Tasks of all
callers wait for one of the ``workers`` slots in **one admission order**
(weighted-fair across tenants, priority then arrival within one — the
:class:`~repro.tenancy.WeightedFairQueue`, cost 1 per task), each draws a
ticket as it is admitted, and their prompts meet in the one batcher, which
serves the oldest ticket first.  ``close()`` stops the threads; an engine
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
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable

from ..obs.export import get_default_exemplars
from ..obs.metrics import MetricsRegistry, get_default_registry
from ..obs.span import span
from ..obs.trace import Trace
from ..tenancy.fairqueue import DEFAULT_TENANT, WeightedFairQueue
from .batcher import ORIGIN, BatcherStats, MicroBatcher, Origin
from .stages import execute_task

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


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the execution engine."""

    #: Maximum number of prompts, of any kinds, coalesced into one LLM call.
    max_batch_size: int = 8
    #: Upper bound (seconds) a pending prompt waits for batch-mates.
    max_wait: float = 0.002
    #: Maximum number of tasks in flight at once (backpressure).
    workers: int = 8
    #: Threads executing batched LLM calls (towards the backend).
    llm_threads: int = 1

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.llm_threads < 1:
            raise ValueError("llm_threads must be positive")
        if self.max_wait < 0:
            raise ValueError("max_wait must be non-negative")

    def with_updates(self, **changes) -> "EngineConfig":
        return replace(self, **changes)


@dataclass
class EngineReport:
    """What happened during one ``run``: timing plus batching statistics."""

    n_tasks: int = 0
    elapsed: float = 0.0
    stats: BatcherStats | None = None

    @property
    def tasks_per_second(self) -> float:
        return self.n_tasks / self.elapsed if self.elapsed else 0.0


@dataclass(eq=False)
class _Run:
    """One ``run`` call: loop-thread state, except ``future`` (the caller waits on it)."""

    pipeline: "UniDM"
    tasks: "list[Task]"
    #: The caller's context: every task of the run is created inside it, so
    #: the ``engine.run`` span and a wire-carried trace parent per-task spans.
    context: contextvars.Context
    share: tuple[str, float, int]
    results: "list[ManipulationResult | None]"
    stats: BatcherStats = field(default_factory=BatcherStats)
    future: "Future[list[ManipulationResult]]" = field(default_factory=Future)
    #: Tasks admitted but not yet at their first step / running / finished.
    starting: int = 0
    live: "set[asyncio.Task[None]]" = field(default_factory=set)
    done: int = 0
    error: BaseException | None = None

    def fail(self, error: BaseException) -> None:
        """First failure wins: the run's other running tasks are cancelled
        (one not yet at its first step sees ``error`` there and stops)."""
        if self.error is None:
            self.error = error
            for task in self.live:
                task.cancel()

    def resolve(self) -> None:
        if self.future.done():
            return
        if self.error is not None:
            self.future.set_exception(self.error)
        else:
            self.future.set_result(list(self.results))  # type: ignore[arg-type]


class _Resident:
    """The threads and loop-side state behind one engine.

    Holds no reference to its :class:`ExecutionEngine`, so an engine nobody
    closes can be collected and its finalizer can call :meth:`close`.
    Everything but ``submit``/``close`` runs on the loop thread.
    """

    def __init__(self, config: EngineConfig, metrics: MetricsRegistry):
        self._config = config
        self._metrics = metrics
        self._m_inflight = metrics.gauge("engine.inflight")
        self._per_kind: dict[str, tuple[Any, Any]] = {}  # kind -> (counter, hist)
        self._executor = ThreadPoolExecutor(
            max_workers=config.llm_threads, thread_name_prefix="repro-llm"
        )
        #: One batcher per backend object: pipelines may be swapped under a
        #: service, and several may share the engine.  Kept for the engine's
        #: life (the batcher pins its backend, so an ``id`` is never reused).
        self._batchers: dict[int, MicroBatcher] = {}
        self._waiting = WeightedFairQueue()  # (run, index) awaiting a slot
        self._free = config.workers
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
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            if leftover:
                loop.run_until_complete(
                    asyncio.gather(*leftover, return_exceptions=True)
                )
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
            pipeline, tasks, contextvars.copy_context(), SHARE.get(), [None] * len(tasks)
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
        self._executor.shutdown(wait=wait, cancel_futures=True)

    # ----------------------------------------------------------- loop thread
    def _shutdown(self) -> None:
        for run in list(self._runs):
            run.fail(RuntimeError("ExecutionEngine was closed during run"))
            run.resolve()
        self._runs.clear()
        self._loop.stop()

    def _enqueue(self, run: _Run) -> None:
        self._runs.add(run)
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
                max_batch_size=self._config.max_batch_size,
                max_wait=self._config.max_wait,
                executor=self._executor,
                metrics=self._metrics,
                llm_threads=self._config.llm_threads,
            )
        return batcher

    def _admit(self) -> None:
        """Hand free slots to waiting tasks in the one admission order."""
        while self._free and len(self._waiting):
            run, index = self._waiting.pop()
            if run.error is not None:
                continue  # its run already failed; the slot goes to the next
            self._free -= 1
            run.starting += 1
            origin = Origin(
                run.tasks[index].route_key,
                next(self._tickets),
                run.stats,
            )
            # Created inside the caller's context: the task copies it, so
            # ORIGIN set within scopes to this task's prompts only.
            # (``create_task(context=)`` needs Python 3.11; CI runs 3.10.)
            run.context.run(self._loop.create_task, self._execute(run, index, origin))

    def _kind_metrics(self, kind: str) -> tuple[Any, Any]:
        handles = self._per_kind.get(kind)
        if handles is None:
            handles = self._per_kind[kind] = (
                self._metrics.counter(f"engine.tasks.{kind}"),
                self._metrics.histogram(f"engine.task_latency.{kind}"),
            )
        return handles

    async def _execute(self, run: _Run, index: int, origin: Origin) -> None:
        """One task in one slot, from admission to the slot's return.

        The slot is returned here, in the task's own last step, not in a done
        callback a loop turn later: the task admitted in its place submits
        its first prompt within the two turns the batcher waits after a
        delivery, and rides the next round trip.
        """
        me = asyncio.current_task()
        assert me is not None
        run.starting -= 1
        run.live.add(me)
        try:
            if run.error is None:  # else: admitted in the turn its run failed
                await self._run_task(run, index, origin)
                run.done += 1
        except asyncio.CancelledError:
            if run.error is None:
                raise  # not a sibling's failure: the loop is shutting down
        except Exception as error:
            run.fail(error)
        finally:
            run.live.discard(me)
            self._free += 1
            if run.done == len(run.tasks) or (
                run.error is not None and not run.live and not run.starting
            ):
                self._runs.discard(run)
                run.resolve()
            self._admit()

    async def _run_task(self, run: _Run, index: int, origin: Origin) -> None:
        task = run.tasks[index]
        batcher = self._batcher_for(run.pipeline.llm)
        kind = task.task_type.name.lower()
        tasks_counter, latency = self._kind_metrics(kind)
        self._m_inflight.inc()
        ORIGIN.set(origin)
        started = time.perf_counter()
        try:
            with span("engine.task", kind=kind, index=index):
                run.results[index] = await execute_task(run.pipeline, task, batcher)
        finally:
            self._m_inflight.dec()
            tasks_counter.inc()
            latency.observe(time.perf_counter() - started)
            get_default_exemplars().note(
                f"engine.task_latency.{kind}", Trace.current_id()
            )


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
        #: The report of the ``run`` that finished last.
        self.last_report = EngineReport()
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
            self.last_report = EngineReport()
            return []
        started = time.perf_counter()
        # The run's context is copied inside the span, so the engine.run span
        # (and any wire-carried trace above it) parents every per-task span.
        with span("engine.run", tasks=len(task_list)):
            run = self._started().submit(pipeline, task_list)
            results = run.future.result()
        self.last_report = EngineReport(
            len(task_list), time.perf_counter() - started, run.stats
        )
        return results

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
