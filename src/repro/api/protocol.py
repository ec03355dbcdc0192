"""The wire protocol spoken between clients and the service.

Every request and every response is a **v2 envelope** on the same
newline-delimited JSON channel (or inside a binary frame, see
:mod:`repro.serving.transport`):

* a request is ``{"v": 2, "id": ..., "task": {"type": ..., ...task fields}}``;
* a response echoes ``{"v": 2, "id": ...}`` with ``"ok": true`` and a
  ``"result"`` object, or ``"ok": false`` and a structured error object
  ``{"code", "message", "field"?}`` (see :class:`~repro.api.errors.ErrorInfo`).

A request whose ``"v"`` is anything but the integer 2 — missing, ``1``,
``true``, ``"2"`` — is answered in position with a ``protocol_error`` naming
``field: "v"``.

Three optional envelope keys carry the observability layer:

* ``"trace"`` — a trace id (see :mod:`repro.obs.trace`).  The client stamps
  every outgoing request with one (the active :class:`~repro.obs.Trace`
  context's id, or a fresh id per request); the service echoes it on the
  response envelope so calls can be correlated end to end.
* ``"span"`` — the caller's span id (see :mod:`repro.obs.span`).  The
  receiving hop uses it as the parent of its own server-side span, so a
  cluster request (client → router → subprocess worker) reassembles into
  one causal tree in the event log.
* ``"priority"`` — an integer (default 0, higher first) honored when
  admitted tasks contend for the engine's slots (see
  :class:`repro.tenancy.WeightedFairQueue`).  A finite number is truncated
  to an int; a non-finite one is a ``protocol_error``.

A fourth optional key carries multi-tenancy (see :mod:`repro.tenancy`):

* ``"tenant"`` — the tenant this request is accounted to.  A front door
  configured with a :class:`~repro.tenancy.TenantRegistry` enforces that
  tenant's token bucket and inflight cap at admission (shedding with a
  structured ``rate_limited`` error) and schedules admitted work
  weighted-fair across tenants; the name is echoed on the response
  envelope and surfaces as ``TaskResult.tenant``.  Unknown names resolve
  to the catch-all ``default`` tenant.

Unknown envelope keys are ignored.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from .errors import ErrorInfo, ProtocolError
from .results import TaskResult
from .specs import TaskSpec, spec_from_request

#: The protocol generation this library speaks — the only one.
PROTOCOL_VERSION = 2


@dataclass(frozen=True)
class ParsedRequest:
    """One validated request: the spec plus its envelope metadata."""

    spec: TaskSpec
    id: Any = None
    #: Trace id carried on the envelope (``None`` when absent).
    trace: str | None = None
    #: Dequeue priority claimed by the envelope (higher first).
    priority: int = 0
    #: Caller's span id on the envelope — parent of this hop's span.
    span: str | None = None
    #: Tenant claimed by the envelope (``None`` when absent).
    tenant: str | None = None


def parse_request(payload: Any) -> ParsedRequest:
    """Validate a raw request envelope into a spec.

    Raises :class:`~repro.api.errors.InvalidRequestError` subclasses on any
    malformed input; the caller decides how to report them (the service turns
    them into error responses, the client raises them directly).
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError("request must be a JSON object")
    version = payload.get("v")
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version 'v' must be 2, got {version!r}; send a v2 envelope "
            '{"v": 2, "id": ..., "task": {"type": ..., ...task fields}}',
            field="v",
        )
    task = payload.get("task")
    if not isinstance(task, Mapping):
        raise ProtocolError("requests must carry a 'task' object", field="task")
    trace = payload.get("trace")
    priority = payload.get("priority", 0)
    if isinstance(priority, float) and not math.isfinite(priority):
        raise ProtocolError("'priority' must be a finite number", field="priority")
    span = payload.get("span")
    tenant = payload.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise ProtocolError("'tenant' must be a string naming the tenant", field="tenant")
    return ParsedRequest(
        spec=spec_from_request(task),
        id=payload.get("id"),
        trace=str(trace) if trace is not None else None,
        priority=int(priority) if isinstance(priority, (int, float)) else 0,
        span=str(span) if span is not None else None,
        tenant=tenant or None,
    )


def encode_request(
    spec: TaskSpec,
    request_id: Any = None,
    *,
    trace: str | None = None,
    priority: int = 0,
    span: str | None = None,
    tenant: str | None = None,
) -> dict[str, Any]:
    """Serialize a spec into a request envelope.

    ``trace`` defaults to the active :class:`~repro.obs.Trace` context's id
    and ``span`` to the active :class:`~repro.obs.span.Span`'s id when one
    is bound; ``priority`` is attached only when nonzero and ``tenant`` only
    when set.
    """
    if trace is None:
        from ..obs.trace import Trace

        trace = Trace.current_id()
    if span is None:
        from ..obs.span import Span

        current_span = Span.current()
        # Only parent under the context span when it belongs to the same
        # trace as this envelope: without a bound Trace every request gets a
        # fresh trace id, and stitching those under one client span would
        # cross-link unrelated traces.
        if current_span is not None and current_span.trace_id == trace:
            span = current_span.span_id
    envelope: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "task": spec.to_request(),
    }
    if trace is not None:
        envelope["trace"] = trace
    if span is not None:
        envelope["span"] = span
    if priority:
        envelope["priority"] = int(priority)
    if tenant:
        envelope["tenant"] = tenant
    return envelope


def _response(
    request_id: Any, ok: bool, key: str, body: Any, trace: str | None, tenant: str | None
) -> dict[str, Any]:
    envelope: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request_id, "ok": ok, key: body}
    if trace is not None:
        envelope["trace"] = trace
    if tenant is not None:
        envelope["tenant"] = tenant
    return envelope


def encode_success(
    result: TaskResult,
    request_id: Any,
    *,
    trace: str | None = None,
    tenant: str | None = None,
) -> dict[str, Any]:
    """Serialize a successful result as a response envelope."""
    return _response(request_id, True, "result", result.to_payload(), trace, tenant)


def encode_error(
    error: ErrorInfo,
    request_id: Any,
    *,
    trace: str | None = None,
    tenant: str | None = None,
) -> dict[str, Any]:
    """Serialize a failure as a response envelope with a structured error."""
    return _response(request_id, False, "error", error.to_payload(), trace, tenant)


def decode_response(payload: Any) -> TaskResult:
    """Parse a response envelope into a result.

    A peer's malformed response raises :class:`ProtocolError`, never a raw
    ``AttributeError``/``ValueError``.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError("response must be a JSON object")
    request_id = payload.get("id")
    trace = payload.get("trace")
    tenant = payload.get("tenant")
    try:
        if payload.get("ok", False):
            body = payload.get("result")
            if not isinstance(body, Mapping):
                raise TypeError(f"'result' must be an object, got {body!r}")
            result = TaskResult.from_payload(body, request_id=request_id)
        else:
            error = ErrorInfo.from_payload(payload.get("error", "unknown error"))
            result = TaskResult(answer=None, id=request_id, error=error)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed response: {exc}") from exc
    result.trace_id = str(trace) if trace is not None else None
    result.tenant = str(tenant) if tenant is not None else None
    return result


__all__ = [
    "PROTOCOL_VERSION",
    "ParsedRequest",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_success",
    "parse_request",
]
