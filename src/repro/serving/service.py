"""JSON service front-end over the execution engine.

Speaks newline-delimited JSON: one request object per line, one response
object per line, in request order.  A blank line (or EOF) closes the current
batch and executes it through the engine, so piping a file of requests gets
full micro-batching while an interactive session can flush at will:

.. code-block:: console

   $ printf '%s\n' \
       '{"v": 2, "id": 1, "task": {"type": "transformation",
         "value": "19990415", "examples": [["20000101", "2000-01-01"]]}}' \
     | python -m repro serve

Requests follow the protocol of :mod:`repro.api.protocol`: the v2 envelope
``{"v": 2, "id": ..., "task": {...}}``.  All seven task types of the unified
framework are served — the task payload schema is defined by the
:class:`~repro.api.specs.TaskSpec` registry.  Responses are
``{"v": 2, "id", "ok", "result": {...}}`` or carry a structured
``"error": {"code", "message", "field"?}`` object.  A bad request never
aborts its batch.

:class:`ServingService` *is* a :class:`~repro.serving.frontdoor.FrontDoor`
— the request path, admission, tenancy, stats and ``close()`` are the base
class's, shared with the cluster router; what this module adds is the *run*
behind it: the resident engine, told whose share each admitted group runs
on, and each task's spec-key tag — set only when the backend's persistent
store keeps a route index (``note_route``) to read it.  Nothing here
serialises callers — concurrent connections' tasks share the engine's slots
and meet in its one batcher.  :func:`serve_lines` and
:func:`start_line_server` put any host's ``handle_batch`` behind stdin or a
socket.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, IO, Iterable, Sequence

from ..api.errors import ApiError, ErrorInfo
from ..api.pipeline_spec import PipelineSpec
from ..api.results import TaskResult
from ..api.specs import TaskSpec
from ..core.config import UniDMConfig
from ..core.pipeline import UniDM
from ..core.tasks.base import Task
from ..core.types import ManipulationResult
from ..llm.base import LanguageModel
from ..llm.cache import CachedLLM
from ..llm.profiles import DEFAULT_MODEL
from ..llm.simulated import SimulatedLLM
from ..obs.export import get_default_exemplars
from ..obs.slo import SLOSpec
from ..obs.span import remote_span
from ..obs.trace import Trace
from ..tenancy import TenantRegistry
from .cache import PersistentCache
from .engine import SHARE, EngineConfig, ExecutionEngine
from .frontdoor import FrontDoor, InvalidRequest
from .transport import answer_group, start_wire_server


def _route_key(spec: "TaskSpec") -> "str | None":
    """The spec's routing digest (``None`` when the spec cannot hash)."""
    from ..flow.planner import spec_key

    try:
        return spec_key(spec)
    except Exception:  # pragma: no cover - defensive: tagging is best-effort
        return None


class ServingService(FrontDoor):
    """The single-process host: a front door over one execution engine.

    ``pipeline`` and ``engine`` are plain attributes read at every run (a
    harness may wrap them in place before the first request); ``engine``
    defaults to a fresh :class:`ExecutionEngine` on the host's registry.
    ``**door`` are :class:`~repro.serving.frontdoor.FrontDoor`'s options,
    unchanged: ``max_inflight`` / ``max_queue_depth`` / ``retry_after``
    (admission control, off by default), ``tenants`` (tenancy, off by
    default), ``slos`` / ``monitor_interval`` and ``metrics``.

    Admitted tasks contending for the engine's slots are admitted
    weighted-fair across tenants and highest-priority first within one (v2
    envelope keys ``"tenant"`` and ``"priority"``; untagged and unknown
    tenant names resolve to ``default``).
    """

    def __init__(
        self, pipeline: UniDM, engine: ExecutionEngine | None = None, **door: Any
    ):
        super().__init__("service", **door)
        self.pipeline = pipeline
        self._m_batch_latency = self._metrics.histogram("service.batch_latency")
        self.engine = engine or ExecutionEngine(metrics=self._metrics)

    def _front_section(self) -> dict:
        return {
            "service": {
                "requests_served": self.requests_served,
                "admission": self.admission.snapshot(),
            }
        }

    def _shutdown(self) -> None:
        self.engine.close()

    def run_tasks(self, tasks: Iterable[Task]) -> list[ManipulationResult]:
        """Run pipeline tasks directly through the engine (in-process path).

        This is what ``Client.local(...).run_tasks`` and the evaluation
        harness use; its tasks share the engine's slots and batcher with the
        JSON request path, on the default tenant.  (Admission control applies
        to the JSON request path only.)
        """
        return self.engine.run(self.pipeline, tasks)

    # --------------------------------------------------------------------- run
    def _run(
        self,
        specs: Sequence[TaskSpec],
        *,
        priority: int,
        tenant: str | None,
        weight: float,
        trace: str | None,
        span_parent: str | None,
    ) -> list[TaskResult]:
        """The front door's *run*: one admitted group on its tenant's share."""
        if tenant is None:
            # A tenancy-free door keeps the share its caller runs on: a
            # cluster worker's batch, or the default tenant at weight 1.
            tenant, weight, _ = SHARE.get()
        # The span covers the wait for engine slots too — that *is* the
        # service-side queueing a caller experiences.
        with remote_span(
            "service.batch",
            trace_id=trace,
            parent_id=span_parent,
            requests=len(specs),
            tenant=tenant,
        ):
            share = SHARE.set((tenant, weight, priority))
            try:
                return self._run_specs(specs)
            finally:
                SHARE.reset(share)

    def _run_specs(self, specs: Sequence[TaskSpec]) -> list[TaskResult]:
        """Specs in, results out.

        Task specs run as one engine batch; a :class:`PipelineSpec` runs the
        streaming flow executor with this same method as its spec-batch
        backend.  A spec that fails to build its task is answered in
        position with the error embedded; it never aborts the batch.
        """
        results: list[TaskResult | None] = [None] * len(specs)
        tasks: list[Task] = []
        slots: list[int] = []
        plans: list[tuple[int, PipelineSpec]] = []
        # The spec-key tag rides engine -> batcher so every prompt lands in the
        # shard's route index (what hash-minimal migration moves entries by).
        # Computed only when the backend keeps such an index: resolved per run
        # through the object, so a wrapper forwarding ``persistent`` decides alike.
        store = getattr(self.pipeline.llm, "persistent", None)
        keyed = getattr(store, "note_route", None) is not None
        for index, spec in enumerate(specs):
            if isinstance(spec, PipelineSpec):
                plans.append((index, spec))
                continue
            try:
                task = spec.to_task()
            except (ApiError, ValueError, KeyError, TypeError, IndexError) as exc:
                info = exc.info if isinstance(exc, ApiError) else ErrorInfo(
                    code="invalid_request", message=str(exc)
                )
                results[index] = TaskResult(answer=None, error=info)
                continue
            if keyed:
                task.route_key = _route_key(spec)
            tasks.append(task)
            slots.append(index)
        if tasks:
            started = time.perf_counter()
            outcomes = self.engine.run(self.pipeline, tasks)
            self._m_batch_latency.observe(time.perf_counter() - started)
            get_default_exemplars().note("service.batch_latency", Trace.current_id())
            for index, outcome in zip(slots, outcomes):
                results[index] = TaskResult.from_manipulation(outcome)
        for index, plan in plans:
            results[index] = run_pipeline_spec(plan, self._run_specs)
        return [result for result in results if result is not None]


#: Contract of a batch handler: raw request objects in, responses in order.
BatchHandler = Callable[[list], "list[dict]"]


def serve_lines(
    handle_batch: BatchHandler, in_stream: IO[str], out_stream: IO[str]
) -> int:
    """Drive any batch handler over the newline-delimited text protocol.

    Shared by the single-service and cluster front-ends: blank lines flush
    the accumulated batch through ``handle_batch``; EOF flushes and returns
    the number of requests forwarded.  Unparseable lines become
    :class:`InvalidRequest` markers so the handler can answer them in
    position with a ``bad_json`` error.
    """
    forwarded = 0
    batch: list = []

    def flush() -> None:
        nonlocal forwarded
        if not batch:
            return
        forwarded += len(batch)
        for response in answer_group(handle_batch, list(batch)):
            out_stream.write(json.dumps(response, ensure_ascii=False) + "\n")
        out_stream.flush()
        batch.clear()

    for line in in_stream:
        line = line.strip()
        if not line:
            flush()
            continue
        try:
            batch.append(json.loads(line))
        except json.JSONDecodeError as exc:
            batch.append(InvalidRequest(f"bad JSON: {exc}"))
    flush()
    return forwarded


async def start_line_server(
    handle_batch: BatchHandler, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind the TCP wire server over any batch handler.

    This is the asyncio-native transport of :mod:`repro.serving.transport`:
    connections that open with a handshake line get multiplexed,
    binary-framed service (many in-flight requests per connection,
    responses correlated by ``id``); connections that don't speak plain
    JSON lines — request lines accumulate and flush on blank lines.  Either
    way batches execute on a worker thread (``handle_batch`` blocks until
    the engine has answered) so the accept loop stays responsive.  See
    ``docs/wire-transport.md`` for the handshake and framing spec.
    """
    return await start_wire_server(handle_batch, host, port)


def run_pipeline_spec(spec: PipelineSpec, submit: "Callable") -> TaskResult:
    """Execute one :class:`PipelineSpec` through a spec-batch backend.

    Shared by the single service (``submit`` = its engine path) and
    the cluster router (``submit`` = the sharded fan-out): runs the
    streaming :class:`~repro.flow.executor.FlowExecutor` and adapts the
    outcome into a :class:`TaskResult`.  A failed plan comes back with a
    structured ``pipeline_failed`` error instead of raising.
    """
    from ..flow.executor import FlowExecutor
    from ..flow.operators import FlowError

    try:
        flow_result = FlowExecutor(submit).run(spec.to_pipeline(), spec.to_table())
    except FlowError as exc:
        return TaskResult(
            answer=None,
            task_type="pipeline",
            error=ErrorInfo(code="pipeline_failed", message=str(exc)),
        )
    return TaskResult(
        answer={
            # Columns travel separately so an empty result still carries
            # the pipeline's output schema.
            "columns": flow_result.table.schema.names,
            "rows": flow_result.table.to_dicts(),
            "answers": flow_result.answers,
            "report": flow_result.report.to_payload(),
        },
        task_type="pipeline",
        tokens=flow_result.report.llm_tokens,
        calls=flow_result.report.llm_calls,
    )


def default_pipeline(
    model: str | None = None,
    seed: int = 0,
    cache_dir: str | None = None,
    knowledge=None,
    llm: LanguageModel | None = None,
    config: UniDMConfig | None = None,
) -> UniDM:
    """The default model stack: simulated LLM (or ``llm``) → cache → pipeline."""
    if llm is None:
        llm = SimulatedLLM(model or DEFAULT_MODEL, knowledge=knowledge, seed=seed)
    persistent = PersistentCache(cache_dir) if cache_dir else None
    return UniDM(CachedLLM(llm, persistent=persistent), config or UniDMConfig.full(seed=seed))


def build_service(
    model: str | None = None,
    seed: int = 0,
    cache_dir: str | None = None,
    batch_size: int = 8,
    workers: int = 8,
    knowledge=None,
    llm: LanguageModel | None = None,
    max_inflight: int | None = None,
    max_queue_depth: int | None = None,
    tenants: TenantRegistry | None = None,
    slos: Sequence[SLOSpec] = (),
    monitor_interval: float = 1.0,
    config: UniDMConfig | None = None,
) -> ServingService:
    """Assemble the default serving stack: :func:`default_pipeline` → engine."""
    return ServingService(
        default_pipeline(model, seed, cache_dir, knowledge, llm=llm, config=config),
        ExecutionEngine(EngineConfig(max_batch_size=batch_size, workers=workers)),
        max_inflight=max_inflight,
        max_queue_depth=max_queue_depth,
        tenants=tenants,
        slos=slos,
        monitor_interval=monitor_interval,
    )
