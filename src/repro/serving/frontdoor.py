"""The front door: what a serving host *is* — one request path, defined once.

Every request — a wire batch (:meth:`FrontDoor.handle_batch`) or a typed
batch (:meth:`FrontDoor.submit_specs`) — crosses the same sequence exactly
once:

    parse → ``stats`` short-circuit → per-tenant admission → global
    admission → *run* → release → latency observation → encode

:class:`FrontDoor` implements that sequence and owns the state it needs
(admission controller, tenancy controller, health monitor, the served
counter).  The two hosts, :class:`~repro.serving.service.ServingService` and
:class:`~repro.cluster.router.Router`, subclass it and supply three methods:
:meth:`FrontDoor._run` — the service's resident engine, the router's sharded
dispatch — :meth:`FrontDoor._front_section`, the head of their stats
snapshot, and :meth:`FrontDoor._shutdown`, what ``close()`` releases after
the monitor.  Whatever holds a host (``repro serve``,
:class:`repro.api.Client`, a cluster worker) therefore holds one type.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..api.errors import ApiError, ErrorInfo, InvalidRequestError
from ..api.protocol import ParsedRequest, encode_error, encode_success, parse_request
from ..api.results import TaskResult
from ..api.specs import TaskSpec
from ..api.stats_spec import StatsSpec
from ..obs.admission import AdmissionController
from ..obs.events import emit_event
from ..obs.export import get_default_exemplars
from ..obs.metrics import MetricsRegistry, get_default_registry
from ..obs.slo import HealthMonitor, SLOSpec
from ..tenancy import TenancyController, TenantRegistry


@dataclass(frozen=True)
class InvalidRequest:
    """Out-of-band marker for a line that never parsed into a request object.

    Kept separate from request dicts so client payloads can carry any keys
    they like without colliding with the error channel.
    """

    error: str


class FrontDoor:
    """A serving host: admits, runs and answers request batches.

    Parameters
    ----------
    name:
        Metric prefix: ``<name>.requests`` and ``<name>.admission.*``.
    metrics:
        Registry every series of the host lands in (process default when
        ``None``).
    max_inflight / max_queue_depth / retry_after:
        Global admission (off while both bounds are ``None``): a batch that
        would push pending requests past their sum is shed with a structured
        ``overloaded`` error carrying the ``retry_after`` hint.
    tenants:
        A :class:`~repro.tenancy.TenantRegistry` turns tenancy on: each
        request's claimed tenant is charged against its token bucket and
        inflight cap *before* global admission (excess is shed per tenant as
        ``rate_limited``) and admitted groups run on their tenant's
        weighted-fair share.
    slos / monitor_interval:
        Objectives and tick period of the host's
        :class:`~repro.obs.slo.HealthMonitor`.
    """

    #: Cluster hosts override this with a method returning ``(live, total)``
    #: worker counts, the monitor's extra readiness input.
    _workers_alive: "Callable[[], tuple[int, int]] | None" = None

    def __init__(
        self,
        name: str,
        *,
        metrics: MetricsRegistry | None = None,
        max_inflight: int | None = None,
        max_queue_depth: int | None = None,
        retry_after: float = 0.05,
        tenants: TenantRegistry | None = None,
        slos: Sequence[SLOSpec] = (),
        monitor_interval: float = 1.0,
    ):
        self._metrics = metrics = metrics or get_default_registry()
        self._m_requests = metrics.counter(f"{name}.requests")
        #: Requests answered through the door, errors included (a pipeline
        #: plan counts once).
        self.requests_served = 0
        self._served_lock = threading.Lock()
        self._closed = False
        self.admission = AdmissionController(
            max_inflight,
            max_queue_depth,
            retry_after=retry_after,
            name=f"{name}.admission",
            metrics=metrics,
        )
        # Tenancy is enforced once, at the outermost door: a router's worker
        # services run tenancy-free so a spec is never double-charged.
        self.tenancy = (
            TenancyController(tenants, retry_after=retry_after, metrics=metrics)
            if tenants is not None
            else None
        )
        # Always present (probes and the timeseries/alerts stats sections
        # work without any SLO configured); its background loop only runs
        # when a front-end calls monitor.start(), and close() stops it.
        self.monitor = HealthMonitor(
            registry=metrics,
            slos=slos,
            interval=monitor_interval,
            admission=self.admission,
            workers_alive=self._workers_alive,
        )

    # ------------------------------------------------------- what a host adds
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
        """The host's executor for one admitted tenant group.

        Returns one :class:`TaskResult` per spec, in order, with per-item
        failures embedded as ``result.error``.  ``tenant`` is the resolved
        name (``None`` with tenancy off) and ``weight`` its fair share;
        ``trace``/``span_parent`` are set only when the whole group rides
        one caller trace (:func:`batch_span_context`).  An exception fails
        the whole call; capacity is still released.
        """
        raise NotImplementedError

    def _front_section(self) -> dict:
        """The host-specific head of a stats snapshot.

        ``{"service": ...}`` for a service; ``{"cluster": ..., "admission":
        ...}`` for a router.
        """
        raise NotImplementedError

    def _shutdown(self) -> None:
        """Release what the host runs on (engine threads, workers)."""
        raise NotImplementedError

    # ------------------------------------------------------------- entrances
    def handle_batch(self, requests: Iterable[Any]) -> list[dict]:
        """Answer raw wire requests (either generation); request order kept.

        A bad request never aborts its batch: it is answered in position
        with a structured error in its own protocol generation.
        """
        request_list = list(requests)
        parsed_entries, responses = parse_batch(request_list)
        results = self._answer([parsed for _, parsed in parsed_entries])
        for (position, parsed), result in zip(parsed_entries, results):
            responses[position] = encode_result(result, parsed)
        self._count(len(request_list))
        return [response for response in responses if response is not None]

    def handle_request(self, request: Any) -> dict:
        """One raw wire request, answered (a batch of one)."""
        return self.handle_batch([request])[0]

    def submit_specs(
        self,
        specs: Sequence[TaskSpec],
        *,
        priority: int = 0,
        trace: str | None = None,
        span_parent: str | None = None,
        tenant: str | None = None,
    ) -> list[TaskResult]:
        """The typed entrance: specs in, results in submission order.

        The same sequence :meth:`handle_batch` runs, minus parse and encode:
        ``stats`` specs are answered before admission; with tenancy on the
        call is charged against ``tenant`` (excess comes back as per-spec
        ``rate_limited`` errors), then global admission applies (a batch
        over the pending bound comes back ``overloaded``).  Per-item
        failures are embedded as ``result.error``, like
        :meth:`repro.api.Client.submit_many`.  ``trace`` (one id for the
        batch) and ``span_parent`` (the caller's span id) tie the host's
        batch span into the caller's span tree.
        """
        entries = [
            ParsedRequest(
                spec, priority=priority, trace=trace, span=span_parent, tenant=tenant
            )
            for spec in specs
        ]
        results = self._answer(entries)
        self._count(len(entries))
        return results

    def _count(self, n: int) -> None:
        # Every request handed in counts as served — a structured error is
        # an answer too — but only at this level: the nested wave
        # submissions of a pipeline plan bypass the door.
        with self._served_lock:
            self.requests_served += n
        self._m_requests.inc(n)

    # ------------------------------------------------------------ the sequence
    def _answer(self, entries: Sequence[ParsedRequest]) -> list[TaskResult]:
        results: list[TaskResult | None] = [None] * len(entries)
        #: Resolved tenant -> positions (one ``None`` group with tenancy off).
        groups: dict[str | None, list[int]] = {}
        for index, parsed in enumerate(entries):
            spec = parsed.spec
            if isinstance(spec, StatsSpec):
                # Before admission and outside the run: observability must
                # survive overload.
                results[index] = TaskResult(
                    answer=self.stats_snapshot(
                        spec.prefix, reset=spec.reset, tenant=spec.tenant
                    ),
                    task_type="stats",
                )
            else:
                tenant = (
                    self.tenancy.resolve(parsed.tenant)
                    if self.tenancy is not None
                    else None
                )
                groups.setdefault(tenant, []).append(index)

        # Per-tenant limits first (cheap, per group), then global capacity
        # once over whatever survived — a wire batch is admitted or shed as
        # a whole, never half of it.
        admitted: dict[str | None, list[int]] = {}
        for tenant, indices in groups.items():
            info = (
                self.tenancy.admit(tenant, len(indices))
                if self.tenancy is not None
                else None
            )
            if info is None:
                admitted[tenant] = indices
            else:
                self._shed("tenancy.shed", info, entries, indices, results)
        survivors = [index for indices in admitted.values() for index in indices]
        if survivors:
            try:
                if not self.admission.try_acquire(len(survivors)):
                    self._shed(
                        "admission.shed",
                        overloaded_error(self.admission),
                        entries,
                        survivors,
                        results,
                        name=self.admission.name,
                        requests=len(survivors),
                    )
                else:
                    try:
                        for tenant, indices in admitted.items():
                            self._run_group(tenant, indices, entries, results)
                    finally:
                        self.admission.release(len(survivors))
            finally:
                if self.tenancy is not None:
                    for tenant, indices in admitted.items():
                        self.tenancy.release(tenant, len(indices))
        answered = [result for result in results if result is not None]
        for parsed, result in zip(entries, answered):
            result.tenant = parsed.tenant  # the claimed name is what echoes
        return answered

    def _run_group(
        self,
        tenant: str | None,
        indices: list[int],
        entries: Sequence[ParsedRequest],
        results: "list[TaskResult | None]",
    ) -> None:
        group = [entries[index] for index in indices]
        trace, span_parent = batch_span_context(group)
        started = time.perf_counter()
        try:
            answered = self._run(
                [parsed.spec for parsed in group],
                priority=max(parsed.priority for parsed in group),
                tenant=tenant,
                weight=self.tenancy.weight(tenant) if self.tenancy is not None else 1.0,
                trace=trace,
                span_parent=span_parent,
            )
        finally:
            if self.tenancy is not None:
                # Queueing behind other tenants included: this histogram's
                # p99 is the isolation signal the chaos tests assert on.
                self.tenancy.observe_latency(
                    tenant, time.perf_counter() - started, len(group)
                )
        if len(answered) != len(group):
            raise RuntimeError(
                f"run answered {len(answered)} results for {len(group)} specs"
            )
        for index, result in zip(indices, answered):
            results[index] = result

    def _shed(
        self,
        kind: str,
        info: ErrorInfo,
        entries: Sequence[ParsedRequest],
        indices: list[int],
        results: "list[TaskResult | None]",
        **fields: Any,
    ) -> None:
        """Answer ``indices`` with one shed error and record the event."""
        trace, _ = batch_span_context(entries[index] for index in indices)
        emit_event(kind, trace=trace, **fields, **(info.details or {}))
        for index in indices:
            results[index] = TaskResult(answer=None, error=info)

    # ------------------------------------------------------------------- stats
    def stats_snapshot(
        self, prefix: str = "", *, reset: bool = False, tenant: str = ""
    ) -> dict:
        """The observability snapshot a ``stats`` request answers with.

        With ``reset`` the registry is zeroed in place *after* the snapshot
        is taken, so the next one reports only what happened since.  With
        ``tenant`` (and tenancy on) the metrics narrow to that tenant's
        ``tenant.<name>.*`` series and the tenancy section to its state.
        """
        if tenant and not prefix and self.tenancy is not None:
            prefix = f"tenant.{self.tenancy.resolve(tenant)}."
        snapshot = {
            **self._front_section(),
            "metrics": self._metrics.snapshot(prefix),
            "exemplars": get_default_exemplars().snapshot(),
        }
        if self.tenancy is not None:
            snapshot["tenancy"] = self.tenancy.snapshot(tenant or None)
        snapshot.update(self.monitor.sections(prefix))
        if reset:
            self._metrics.reset()
        return snapshot

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the monitor's loop, then the host's own machinery (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.monitor.stop()
        self._shutdown()

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------- wire helpers
def parse_batch(
    requests: Sequence[Any],
) -> "tuple[list[tuple[int, ParsedRequest]], list[dict | None]]":
    """Parse raw wire requests into specs, encoding failures in position.

    Unparseable lines (:class:`InvalidRequest`) become ``bad_json`` errors,
    validation failures carry their :class:`~repro.api.errors.ApiError`
    info, and all error responses use the request's claimed protocol
    generation.

    Returns:
        ``(parsed, responses)`` where ``parsed`` holds ``(position,
        ParsedRequest)`` for every valid request and ``responses`` is a
        request-aligned list containing an encoded error response for each
        invalid one (``None`` elsewhere).
    """
    parsed_entries: list[tuple[int, ParsedRequest]] = []
    responses: list[dict | None] = [None] * len(requests)
    for position, request in enumerate(requests):
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            if isinstance(request, InvalidRequest):
                raise InvalidRequestError(request.error, code="bad_json")
            parsed_entries.append((position, parse_request(request)))
        except ApiError as exc:
            version = claimed_version(request)
            responses[position] = encode_error(exc.info, request_id, version)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            version = claimed_version(request)
            error = ErrorInfo(code="invalid_request", message=str(exc))
            responses[position] = encode_error(error, request_id, version)
    return parsed_entries, responses


def encode_result(result: TaskResult, parsed: ParsedRequest) -> dict:
    """One result as a wire response in its request's protocol generation."""
    if result.error is not None:
        return encode_error(
            result.error,
            parsed.id,
            parsed.version,
            trace=parsed.trace,
            tenant=parsed.tenant,
        )
    return encode_success(
        result, parsed.id, parsed.version, trace=parsed.trace, tenant=parsed.tenant
    )


def claimed_version(request: Any) -> int:
    """Best-effort protocol generation of a failed request (for its response)."""
    if isinstance(request, dict) and isinstance(request.get("v"), int) and request["v"] >= 2:
        return 2
    return 1


def overloaded_error(admission: AdmissionController) -> ErrorInfo:
    """The structured shed response of an admission-control rejection.

    Beyond the ``retry_after`` back-off hint, ``details`` carries the
    controller state at shed time — ``queue_depth`` and ``inflight`` tell a
    shed client (and the chaos tests) *why*: saturated executor, or backlog.
    """
    capacity = admission.capacity
    return ErrorInfo(
        code="overloaded",
        message=(
            f"admission control shed this request: {admission.pending} pending "
            f"of {capacity} allowed; retry after {admission.retry_after:g}s"
        ),
        retry_after=admission.retry_after,
        details={
            "pending": admission.pending,
            "inflight": admission.inflight,
            "queue_depth": admission.queued,
            "capacity": capacity,
        },
    )


def batch_span_context(
    parsed_entries: "Iterable[ParsedRequest]",
) -> tuple[str | None, str | None]:
    """The (trace id, parent span id) a batch-level server span should use.

    One server-side span covers the whole admitted batch, so it can only be
    attached to a caller's trace when the batch is *unambiguous*: every
    envelope carries the same trace id (some traced, some not, counts as
    mixed).  The parent span id is used under the same condition —
    mixed-trace batches (independent requests that happened to coalesce)
    get a local span with a fresh trace instead of cross-linking unrelated
    traces.
    """
    traces: set[str | None] = set()
    spans: set[str | None] = set()
    for parsed in parsed_entries:
        traces.add(parsed.trace)
        spans.add(parsed.span)
    batch_trace = traces.pop() if len(traces) == 1 else None
    batch_parent = (
        spans.pop() if batch_trace is not None and len(spans) == 1 else None
    )
    return batch_trace, batch_parent
