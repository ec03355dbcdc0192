"""One client facade over the in-process engine and the TCP service.

``Client.local(...)`` builds (or wraps) a pipeline + engine in this process;
``Client.remote(host, port)`` speaks the line protocol to a running
``python -m repro serve --port`` instance.  Both offer the same calls with
the same semantics:

* :meth:`Client.submit` — one :class:`~repro.api.specs.TaskSpec`, returns a
  :class:`~repro.api.results.TaskResult`, raising
  :class:`~repro.api.errors.TaskFailedError` on an error response;
* :meth:`Client.submit_many` — a batch of specs, answered in order, with
  per-item failures embedded as ``result.error`` (never raising mid-batch);
* :meth:`Client.asubmit_many` — ``submit_many`` run off the event loop.

Both paths serialize specs through the same v2 wire encoding and decode the
same response envelopes, so a spec answered locally and remotely is, by
construction, the *same request* — the acceptance contract of the redesign.
Local clients additionally expose :meth:`run_task` / :meth:`run_tasks`,
which accept pipeline :class:`~repro.core.tasks.base.Task` objects directly
and return rich :class:`~repro.core.types.ManipulationResult`\\ s (with full
prompt traces) — the entry point the CLI demo, the evaluation harness and
the examples use.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..obs.events import get_default_event_log
from ..obs.span import span
from ..obs.trace import Trace, new_trace_id
from .errors import TransportError
from .protocol import PROTOCOL_VERSION, decode_response, encode_request
from .results import TaskResult
from .specs import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.router import Router
    from ..core.config import UniDMConfig
    from ..core.pipeline import UniDM
    from ..core.tasks.base import Task
    from ..core.types import ManipulationResult
    from ..llm.base import LanguageModel
    from ..serving.engine import ExecutionEngine
    from ..serving.frontdoor import FrontDoor
    from ..serving.service import ServingService
    from ..serving.transport import WireConnection
    from ..tenancy import TenantRegistry

#: Error codes ``retries=`` may resubmit: the shed responses that carry a
#: ``retry_after`` hint and promise the same request can succeed later.
_RETRYABLE_CODES = frozenset({"overloaded", "rate_limited"})

#: Bounds on the honored ``retry_after`` hint (seconds): a floor so a zero
#: hint still backs off, a cap so a pathological hint cannot hang a caller.
_RETRY_FLOOR = 0.01
_RETRY_CAP = 5.0


class Client:
    """Unified entry point to the seven data-manipulation tasks."""

    def __init__(self, backend: "_Backend"):
        self._backend = backend
        #: ``next()`` on a count is atomic, so ``asubmit_many`` calls in
        #: flight together never hand one id out twice.
        self._ids = itertools.count()
        self._last_trace: str | None = None

    # ------------------------------------------------------------ constructors
    @classmethod
    def local(
        cls,
        llm: "LanguageModel | None" = None,
        config: "UniDMConfig | None" = None,
        engine: "ExecutionEngine | None" = None,
        *,
        pipeline: "UniDM | None" = None,
        model: str | None = None,
        seed: int = 0,
        knowledge: Any = None,
        cache_dir: str | None = None,
        batch_size: int = 8,
        workers: int = 8,
        tenants: "TenantRegistry | None" = None,
    ) -> "Client":
        """A client over an in-process pipeline + execution engine.

        With no arguments this assembles the default serving stack (simulated
        LLM → cache → engine); pass ``llm``/``config`` to customise it or
        ``pipeline`` to wrap an existing :class:`~repro.core.pipeline.UniDM`.

        Args:
            llm: Language model to build a pipeline around (mutually
                exclusive with ``pipeline``).
            config: Pipeline configuration (default ``UniDMConfig.full``).
            engine: Execution engine to use instead of a fresh one.
            pipeline: A ready :class:`~repro.core.pipeline.UniDM` to wrap.
            model: Simulated-model profile name for the default stack.
            seed: Seed shared by the default pipeline and simulated LLM.
            knowledge: World-knowledge store for the default simulated LLM.
            cache_dir: Directory of a persistent completion cache.
            batch_size: Micro-batch size of the fresh engine.
            workers: Concurrent tasks in flight in the fresh engine.
            tenants: Per-tenant scheduling/rate-limit configuration (see
                :mod:`repro.tenancy`); ``None`` leaves tenancy off.

        Returns:
            A :class:`Client` whose submissions run on the local engine.

        Raises:
            ValueError: If both ``pipeline`` and ``llm``/``config`` are given,
                or ``model``/``knowledge``/``cache_dir`` (which configure the
                default simulated model) together with the ``llm`` or
                ``pipeline`` that replaces it.

        Example:
            >>> from repro.api import Client, TransformationSpec
            >>> spec = TransformationSpec(value="19990415",
            ...                           examples=[["20000101", "2000-01-01"]])
            >>> with Client.local(seed=0) as client:
            ...     client.submit(spec).answer
            '1999-04-15'
        """
        from ..core.config import UniDMConfig
        from ..core.pipeline import UniDM
        from ..serving.engine import EngineConfig, ExecutionEngine
        from ..serving.service import ServingService, default_pipeline

        if pipeline is not None and (llm is not None or config is not None):
            raise ValueError(
                "pass either pipeline= or llm=/config= to Client.local, not "
                "both — a ready pipeline already fixes its model and config"
            )
        if pipeline is not None or llm is not None:
            _reject_pairs(
                "Client.local",
                "pipeline=" if pipeline is not None else "llm=",
                "a model you pass is used as given; these configure the default "
                "simulated one (wrap yours in CachedLLM to cache it)",
                model=model,
                knowledge=knowledge,
                cache_dir=cache_dir,
            )
        if pipeline is None:
            pipeline = (
                UniDM(llm, config or UniDMConfig.full(seed=seed))
                if llm is not None
                else default_pipeline(model, seed, cache_dir, knowledge, config=config)
            )
        if engine is None:
            engine = ExecutionEngine(
                EngineConfig(max_batch_size=batch_size, workers=workers)
            )
        return cls(_HostBackend(ServingService(pipeline, engine, tenants=tenants)))

    @classmethod
    def remote(
        cls,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 30.0,
        *,
        pool_size: int = 4,
    ) -> "Client":
        """A client speaking the wire transport to a running TCP service.

        Connections are pooled and keep-alive; each one handshakes into
        binary framing at connect time (see ``docs/wire-transport.md``), and
        ``submit_many`` pipelines its whole batch over one connection
        instead of paying a round trip per request.

        Args:
            host: Service host (``python -m repro serve --port ...``).
            port: Service TCP port.
            timeout: Per-connection socket timeout in seconds.
            pool_size: Idle keep-alive connections retained for reuse.

        Returns:
            A :class:`Client` whose submissions travel over TCP; the
            spec/result semantics are identical to :meth:`local`.
        """
        return cls(_RemoteBackend(host, port, timeout, pool_size=pool_size))

    @classmethod
    def cluster(
        cls,
        workers: int = 4,
        *,
        mode: str = "thread",
        seed: int = 0,
        model: str | None = None,
        knowledge: Any = None,
        cache_dir: str | None = None,
        batch_size: int = 8,
        engine_workers: int = 8,
        queue_depth: int | None = None,
        llm_factory: Any = None,
        config: "UniDMConfig | None" = None,
        router: "Router | None" = None,
        tenants: "TenantRegistry | None" = None,
    ) -> "Client":
        """A client over a sharded multi-worker cluster (see ``repro.cluster``).

        Specs are consistent-hashed across ``workers`` serving stacks, each
        owning a disjoint persistent-cache shard, so repeated work always
        lands on the worker already holding its completions.  Submission
        semantics are identical to :meth:`local` / :meth:`remote`.

        Args:
            workers: Number of shard workers.
            mode: ``"thread"`` for in-process workers, ``"process"`` for
                spawned ``python -m repro serve`` subprocesses speaking the
                v2 TCP protocol.
            seed: Seed of every worker's pipeline + simulated LLM.
            model: Simulated-model profile of every worker.
            knowledge: World-knowledge store shared by thread workers.
            cache_dir: Parent directory of the per-worker persistent cache
                shards (``<cache_dir>/worker-NN``).
            batch_size: Micro-batch size of each worker's engine.
            engine_workers: Concurrent tasks in flight per worker engine.
            queue_depth: Batches that may wait behind the first inside a
                thread worker (backpressure bound; default 32).
            llm_factory: ``int -> LanguageModel`` building a custom backend
                per thread worker (benchmarks, tests).
            config: Pipeline configuration override for thread workers.
            router: A ready :class:`~repro.cluster.router.Router` to wrap
                (every other argument is then ignored).
            tenants: Per-tenant scheduling/rate-limit configuration
                enforced at the router (see :mod:`repro.tenancy`).

        Returns:
            A :class:`Client` whose submissions fan out across the cluster.

        Raises:
            ValueError: If ``mode`` is not ``"thread"`` or ``"process"``,
                ``workers`` is not positive, or ``mode="process"`` comes with
                one of the thread-worker-only arguments (``knowledge``,
                ``queue_depth``, ``llm_factory``, ``config``).

        Example:
            >>> from repro.api import Client, TransformationSpec
            >>> specs = [TransformationSpec(value=value,
            ...                             examples=[["20000101", "2000-01-01"]])
            ...          for value in ["19990415", "20061231"]]
            >>> with Client.cluster(workers=2, seed=0) as client:
            ...     [result.answer for result in client.submit_many(specs)]
            ['1999-04-15', '2006-12-31']
        """
        from ..cluster.router import Router

        if router is None:
            options = dict(
                seed=seed,
                model=model,
                cache_dir=cache_dir,
                batch_size=batch_size,
                engine_workers=engine_workers,
                tenants=tenants,
            )
            thread_only = dict(
                knowledge=knowledge,
                queue_depth=queue_depth,
                llm_factory=llm_factory,
                config=config,
            )
            if mode == "thread":
                given = {k: v for k, v in thread_only.items() if v is not None}
                router = Router.local(workers, **options, **given)
            elif mode == "process":
                _reject_pairs(
                    "Client.cluster",
                    'mode="process"',
                    "spawned workers build their own default stack; only thread "
                    "workers can be handed in-process objects",
                    **thread_only,
                )
                router = Router.spawn(workers, **options)
            else:
                raise ValueError(
                    f"mode must be 'thread' or 'process', got {mode!r}"
                )
        return cls(_HostBackend(router))

    # -------------------------------------------------------------- spec path
    def submit(
        self,
        spec: TaskSpec,
        *,
        priority: int = 0,
        tenant: str | None = None,
        retries: int = 0,
    ) -> TaskResult:
        """Execute one task spec; raise on failure.

        Raises ``OverloadedError`` (with ``retry_after``) when admission
        control shed the request, ``RateLimitedError`` when the request's
        ``tenant`` exceeded its limits, ``TaskFailedError`` for any other
        error response.  ``retries`` bounds automatic resubmission of those
        shed responses (see :meth:`submit_many`).
        """
        return self.submit_many(
            [spec], priority=priority, tenant=tenant, retries=retries
        )[0].unwrap()

    def submit_many(
        self,
        specs: Sequence[TaskSpec],
        *,
        priority: int = 0,
        tenant: str | None = None,
        retries: int = 0,
    ) -> list[TaskResult]:
        """Execute a batch of specs; responses keep submission order.

        Failures never abort the batch — each failed item carries its
        structured error in ``result.error`` (``result.ok`` is False).
        Every v2 envelope is stamped with a trace id (the active
        :class:`~repro.obs.Trace` context's id, or a fresh one per request)
        and, when nonzero, ``priority`` — honored at dequeue by admission-
        controlled services.  ``tenant`` rides the envelope too, so a
        tenancy-configured front door accounts, rate-limits and
        fair-schedules the batch under that tenant (see
        :mod:`repro.tenancy`).  The whole call is timed under a
        ``client.submit`` span; inside a :class:`~repro.obs.Trace` context
        it becomes the root of the request's distributed span tree.

        ``retries`` (opt-in, default 0) bounds automatic resubmission of
        items shed with ``overloaded`` or ``rate_limited``: after each
        round the client sleeps the largest ``retry_after`` hint among the
        shed items (floored/capped client-side) and resubmits only those.
        Items still shed after ``retries`` rounds keep their error.
        """
        results = self._submit_once(specs, priority, tenant)
        for _ in range(retries):
            positions = _retryable_positions(results)
            if not positions:
                break
            time.sleep(_backoff_hint(results, positions))
            retried = self._submit_once(
                [specs[position] for position in positions], priority, tenant
            )
            for position, result in zip(positions, retried):
                results[position] = result
        return results

    async def asubmit_many(
        self,
        specs: Sequence[TaskSpec],
        *,
        priority: int = 0,
        tenant: str | None = None,
        retries: int = 0,
    ) -> list[TaskResult]:
        """:meth:`submit_many`, off the event loop (same ordering/error rules).

        The synchronous call runs on the loop's default executor inside a
        copy of the caller's context — a bound :class:`~repro.obs.Trace` and
        the caller's current span still apply — so the loop stays free while
        the batch (and any ``retries`` back-off) is in flight.
        """
        return await asyncio.to_thread(
            self.submit_many, specs, priority=priority, tenant=tenant, retries=retries
        )

    def _submit_once(
        self, specs: Sequence[TaskSpec], priority: int, tenant: str | None
    ) -> list[TaskResult]:
        with span("client.submit", specs=len(specs)):
            requests = self._encode(specs, priority=priority, tenant=tenant)
            if not requests:
                return []
            self._last_trace = requests[0].get("trace")
            started = time.perf_counter()
            responses = self._backend.send(requests)
            elapsed = time.perf_counter() - started
            return self._decode(responses, len(requests), elapsed)

    def last_trace(self) -> str | None:
        """Trace id stamped on the most recent submission (or ``None``)."""
        return self._last_trace

    def events(
        self, trace: str | None = None, *, kind: str | None = None
    ) -> list[dict]:
        """Buffered events of the process-default event log.

        Args:
            trace: Restrict to one trace id; defaults to :meth:`last_trace`
                (pass ``""`` for every trace).
            kind: Restrict to one event kind (e.g. ``"span"``).
        """
        if trace is None:
            trace = self._last_trace
        if trace == "":
            trace = None
        return get_default_event_log().events(trace=trace, kind=kind)

    def stats(
        self, prefix: str = "", *, tenant: str | None = None, reset: bool = False
    ) -> Any:
        """The serving front-end's observability snapshot.

        Submits a :class:`~repro.api.stats_spec.StatsSpec` through the same
        wire path as every other request, so local, remote and cluster
        clients answer identically shaped snapshots: a ``metrics`` section
        (counters / gauges / histogram percentiles of the
        :class:`~repro.obs.MetricsRegistry`) plus a front-end section
        (service totals, or the aggregated cluster stats).

        Args:
            prefix: Restrict the ``metrics`` section to names under this
                dotted prefix (e.g. ``"batcher"``).
            tenant: Restrict the snapshot to one tenant — the ``metrics``
                section narrows to ``tenant.<resolved>.*`` and the
                ``tenancy`` section reports only that tenant's state.
            reset: Zero every metric (in place) after the snapshot, so the
                next one describes only what happened since — benchmark
                isolation without snapshot subtraction.
        """
        from .stats_spec import StatsSpec

        return self.submit(
            StatsSpec(prefix=prefix, tenant=tenant or "", reset=reset)
        ).answer

    def health(self) -> dict:
        """The serving front-end's liveness/readiness view.

        Reads the ``health`` section of the stats snapshot (produced by the
        service's :class:`~repro.obs.slo.HealthMonitor`): ``status``
        (``"ok"`` / ``"degraded"``), ``ready`` plus the ``reasons`` it is
        not, uptime and the firing-alert count.  Same wire path as
        :meth:`stats`, so it works identically for local, remote and
        cluster clients.
        """
        snapshot = self.stats()
        health = snapshot.get("health") if isinstance(snapshot, dict) else None
        if not isinstance(health, dict):
            # Pre-SLO service: alive by virtue of having answered.
            return {"status": "ok", "ready": True, "reasons": []}
        return health

    def workers(self) -> "tuple[int, int] | None":
        """Cluster mode: the ``(live, total)`` worker count, else ``None``.

        Reads the ``workers`` detail of the health section — the counts
        move at runtime as the elastic ring resizes (joins, drained leaves,
        crash restarts), so this is the cheap way to watch a cluster scale
        without parsing the full per-worker stats rows.
        """
        workers = self.health().get("workers")
        if not isinstance(workers, dict):
            return None
        return int(workers.get("live", 0)), int(workers.get("total", 0))

    def alerts(self) -> list[dict]:
        """The firing SLO alerts of the serving front-end (may be empty).

        Each alert carries the objective's name, kind, severity, metric,
        the per-window values that breached, and how long it has been
        firing (``for_s``).  Empty when no SLOs are configured or nothing
        is breaching.
        """
        snapshot = self.stats()
        alerts = snapshot.get("alerts") if isinstance(snapshot, dict) else None
        return alerts if isinstance(alerts, list) else []

    # -------------------------------------------------------------- task path
    def run_task(self, task: "Task") -> "ManipulationResult":
        """Run one pipeline task in-process (rich result with prompt trace)."""
        return self._backend.run_tasks([task])[0]

    def run_tasks(self, tasks: Iterable["Task"]) -> "list[ManipulationResult]":
        """Run pipeline tasks through the local engine, preserving order."""
        return self._backend.run_tasks(list(tasks))

    # ------------------------------------------------------------- life-cycle
    @property
    def is_local(self) -> bool:
        """Whether this client runs on one in-process engine (``run_task`` works)."""
        return hasattr(self._backend.in_process, "run_tasks")

    @property
    def service(self) -> "ServingService":
        """The in-process service (local clients only).

        Raises:
            TransportError: When this client is not a local client.
        """
        if not self.is_local:
            raise TransportError("this client has no service; use Client.local")
        return self._backend.in_process

    @property
    def pipeline(self) -> "UniDM":
        """The in-process pipeline (local clients only)."""
        return self.service.pipeline

    @property
    def router(self) -> "Router":
        """The cluster router (cluster clients only).

        Raises:
            TransportError: When this client is not a cluster client.
        """
        if self.is_local or self._backend.in_process is None:
            raise TransportError("this client has no router; use Client.cluster")
        return self._backend.in_process

    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -------------------------------------------------------------- internals
    def _encode(
        self, specs: Sequence[TaskSpec], priority: int = 0, tenant: str | None = None
    ) -> list[dict]:
        requests = []
        for spec in specs:
            if not isinstance(spec, TaskSpec):
                raise TypeError(
                    f"submit expects TaskSpec instances, got {type(spec).__name__}; "
                    "use run_task/run_tasks for pipeline Task objects"
                )
            requests.append(
                encode_request(
                    spec,
                    next(self._ids),
                    PROTOCOL_VERSION,
                    trace=Trace.current_id() or new_trace_id(),
                    priority=priority,
                    tenant=tenant,
                )
            )
        return requests

    def _decode(
        self, responses: list[dict], expected: int, elapsed: float
    ) -> list[TaskResult]:
        if len(responses) != expected:
            raise TransportError(
                f"service answered {len(responses)} responses for {expected} requests"
            )
        # Every backend answers in request order (the wire connection
        # realigns multiplexed responses by id itself).
        per_item = elapsed / expected
        results = [decode_response(response) for response in responses]
        for result in results:
            result.elapsed = per_item
        return results


# -------------------------------------------------------------------- retries
def _retryable_positions(results: "list[TaskResult]") -> list[int]:
    """Positions whose error is a shed (`overloaded`/`rate_limited`) response."""
    return [
        position
        for position, result in enumerate(results)
        if result.error is not None and result.error.code in _RETRYABLE_CODES
    ]


def _backoff_hint(results: "list[TaskResult]", positions: list[int]) -> float:
    """The sleep honoring the largest ``retry_after`` among shed items."""
    hint = max(
        (results[position].error.retry_after or 0.0) for position in positions
    )
    return min(max(hint, _RETRY_FLOOR), _RETRY_CAP)


def _reject_pairs(where: str, given: str, why: str, **dropped: Any) -> None:
    """Refuse arguments that ``given`` would make ``where`` drop silently."""
    for name, value in dropped.items():
        if value is not None:
            raise ValueError(
                f"pass either {given} or {name}= to {where}, not both — {why}"
            )


# ------------------------------------------------------------------- backends
class _Backend:
    """Transport strategy: how encoded request batches reach a host."""

    #: The host itself when it lives in this process (else ``None``).
    in_process: "FrontDoor | None" = None

    def send(self, requests: list[dict]) -> list[dict]:
        raise NotImplementedError

    def run_tasks(self, tasks: "list[Task]") -> "list[ManipulationResult]":
        raise TransportError("run_task/run_tasks need a local client; this one is remote")

    def close(self) -> None:
        pass


class _HostBackend(_Backend):
    """Requests answered by a host in this process.

    A :class:`~repro.serving.service.ServingService` and a sharded
    :class:`~repro.cluster.router.Router` are the same
    :class:`~repro.serving.frontdoor.FrontDoor` to the facade — per-spec
    placement, backpressure and failover live entirely inside the router —
    except that only a service has the one engine ``run_tasks`` needs.
    """

    def __init__(self, host: "FrontDoor"):
        self.in_process = host

    def send(self, requests: list[dict]) -> list[dict]:
        return self.in_process.handle_batch(requests)

    def run_tasks(self, tasks: "list[Task]") -> "list[ManipulationResult]":
        if not hasattr(self.in_process, "run_tasks"):
            raise TransportError(
                "run_task/run_tasks need a single local engine; a cluster routes "
                "typed specs only — use submit/submit_many"
            )
        return self.in_process.run_tasks(tasks)

    def close(self) -> None:
        self.in_process.close()


class _RemoteBackend(_Backend):
    """Requests shipped over the binary-framed TCP wire transport.

    Connections are **kept alive and reused**: the first batch pays one
    connect + handshake round trip (see
    :class:`repro.serving.transport.WireConnection`), a finished batch parks
    its connection here (at most ``pool_size`` idle ones are kept, the rest
    closed), and every later batch takes a parked one and pipelines its
    requests over it.

    A batch that fails on a reused connection (the server restarted, a
    keep-alive socket went stale) is retried once on a fresh connection
    before surfacing a :class:`TransportError`.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 30.0, *, pool_size: int = 4
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool_size = pool_size
        self._idle: "list[WireConnection]" = []
        self._closed = False
        self._lock = threading.Lock()

    def _acquire(self) -> "WireConnection":
        from ..serving.transport import WireConnection

        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if conn.alive:
                    return conn
                conn.close()
        return WireConnection.open(self.host, self.port, self.timeout)

    def send(self, requests: list[dict]) -> list[dict]:
        from ..serving.transport import FrameError

        last_error: Exception | None = None
        for attempt in range(2):
            try:
                conn = self._acquire()
            except OSError as exc:
                raise TransportError(
                    f"cannot reach service at {self.host}:{self.port}: {exc}"
                ) from exc
            try:
                responses = conn.send_batch(requests)
            except (OSError, FrameError, ConnectionError) as exc:
                # A stale keep-alive connection fails on first use after a
                # server restart; one fresh-connection retry absorbs that.
                conn.close()
                last_error = exc
                continue
            with self._lock:
                keep = not self._closed and len(self._idle) < self.pool_size
                if keep:
                    self._idle.append(conn)
            if not keep:
                conn.close()
            return responses
        raise TransportError(
            f"service at {self.host}:{self.port} dropped the batch: {last_error}"
        ) from last_error

    def close(self) -> None:
        """Close the idle connections; one still in a batch closes on return."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


__all__ = ["Client"]
