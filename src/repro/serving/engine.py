"""The batched async execution engine.

``ExecutionEngine.run(pipeline, tasks)`` executes many task instances
concurrently: each task becomes a coroutine walking the pipeline's plan stages
(meta-retrieval → instance-retrieval → parsing → answer, see
:mod:`repro.serving.stages`), a worker semaphore bounds how many are in flight
(backpressure), and every LLM call funnels through the
:class:`~repro.serving.batcher.MicroBatcher`, which coalesces same-kind
prompts across tasks into batched calls.

Determinism contract: the pipeline is a pure function of ``(seed, task)``
given its completions, so the engine issues exactly the prompts a lone
``UniDM.run(task)`` would, at any batch size / worker count.  Completions are
a pure function of the prompt for every backend except the bare
``SimulatedLLM``, whose noise stream is call-order state (known gap, see
ROADMAP) — behind a filled cache it, too, replays exactly.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

from ..obs.export import get_default_exemplars
from ..obs.metrics import MetricsRegistry, get_default_registry
from ..obs.span import span
from ..obs.trace import Trace
from .batcher import ROUTE_KEY, BatcherStats, MicroBatcher
from .stages import execute_task

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import UniDM
    from ..core.tasks.base import Task
    from ..core.types import ManipulationResult


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the execution engine."""

    #: Maximum number of same-kind prompts coalesced into one LLM call.
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


class ExecutionEngine:
    """Executes iterables of tasks through a UniDM pipeline, micro-batched."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config or EngineConfig()
        self.last_report = EngineReport()
        self._metrics = metrics or get_default_registry()

    # ------------------------------------------------------------------ running
    def run(
        self, pipeline: "UniDM", tasks: Iterable["Task"]
    ) -> "list[ManipulationResult]":
        """Execute ``tasks`` and return their results in input order."""
        task_list = list(tasks)
        if not task_list:
            self.last_report = EngineReport()
            return []
        started = time.perf_counter()
        # asyncio.run copies the current context into the main task, so the
        # engine.run span (and any wire-carried trace above it) parents every
        # per-task span inside the loop.
        with span("engine.run", tasks=len(task_list)):
            results = asyncio.run(self._run_async(pipeline, task_list))
        self.last_report.elapsed = time.perf_counter() - started
        self.last_report.n_tasks = len(task_list)
        return results

    async def _run_async(
        self, pipeline: "UniDM", tasks: "list[Task]"
    ) -> "list[ManipulationResult]":
        config = self.config
        executor = ThreadPoolExecutor(
            max_workers=config.llm_threads, thread_name_prefix="repro-llm"
        )
        batcher = MicroBatcher(
            pipeline.llm,
            max_batch_size=config.max_batch_size,
            max_wait=config.max_wait,
            executor=executor,
            metrics=self._metrics,
        )
        semaphore = asyncio.Semaphore(config.workers)
        inflight = self._metrics.gauge("engine.inflight")
        per_kind: dict[str, tuple] = {}  # kind -> (tasks counter, latency hist)

        def kind_metrics(kind: str) -> tuple:
            handles = per_kind.get(kind)
            if handles is None:
                handles = (
                    self._metrics.counter(f"engine.tasks.{kind}"),
                    self._metrics.histogram(f"engine.task_latency.{kind}"),
                )
                per_kind[kind] = handles
            return handles

        async def bounded(index: int, task: "Task") -> "ManipulationResult":
            async with semaphore:
                kind = task.task_type.name.lower()
                tasks_counter, latency = kind_metrics(kind)
                inflight.inc()
                # Each asyncio task runs in its own context copy, so setting
                # the route key here scopes it to this task's prompts only —
                # the batcher reads it per submit() to build the route index
                # shard migration depends on.
                ROUTE_KEY.set(getattr(task, "route_key", None))
                started = time.perf_counter()
                try:
                    with span("engine.task", kind=kind, index=index):
                        return await execute_task(pipeline, task, batcher)
                finally:
                    inflight.dec()
                    tasks_counter.inc()
                    latency.observe(time.perf_counter() - started)
                    get_default_exemplars().note(
                        f"engine.task_latency.{kind}", Trace.current_id()
                    )

        try:
            results = await asyncio.gather(
                *(bounded(index, task) for index, task in enumerate(tasks))
            )
        finally:
            executor.shutdown(wait=False)
            self.last_report = EngineReport(stats=batcher.stats)
        return list(results)
