"""The versioned wire protocol spoken between clients and the service.

Two request generations coexist on the same newline-delimited JSON channel:

* **v1** (PR 1 format, still accepted) — a flat object
  ``{"id": ..., "type": "transformation", ...task fields}``.  Responses are
  flat too, with failures carried as a bare ``"error"`` string.
* **v2** (current) — an explicit envelope
  ``{"v": 2, "id": ..., "task": {"type": ..., ...task fields}}``.  Responses
  echo ``{"v": 2}`` and failures carry a structured error object
  ``{"code", "message", "field"?}`` (see :class:`~repro.api.errors.ErrorInfo`).

A request without a ``"v"`` key is treated as v1, so every PR 1 client keeps
working against the v2 service; the response generation always mirrors the
request generation, so a v1 caller never sees a v2 shape.

Three optional v2 envelope keys carry the observability layer:

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
  :class:`repro.tenancy.WeightedFairQueue`).

A fourth optional key carries multi-tenancy (see :mod:`repro.tenancy`):

* ``"tenant"`` — the tenant this request is accounted to.  A front door
  configured with a :class:`~repro.tenancy.TenantRegistry` enforces that
  tenant's token bucket and inflight cap at admission (shedding with a
  structured ``rate_limited`` error) and schedules admitted work
  weighted-fair across tenants; the name is echoed on the response
  envelope and surfaces as ``TaskResult.tenant``.  Unknown names resolve
  to the catch-all ``default`` tenant.

All four are ignored by v1 and by older v2 peers — unknown envelope keys
have always been legal.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from .errors import ErrorInfo, ProtocolError
from .results import TaskResult
from .specs import TaskSpec, spec_from_request

#: The protocol generation this library speaks natively.
PROTOCOL_VERSION = 2

#: Request generations the service accepts.
SUPPORTED_VERSIONS = (1, 2)


@dataclass(frozen=True)
class ParsedRequest:
    """One validated request: the spec plus its envelope metadata."""

    spec: TaskSpec
    id: Any = None
    version: int = PROTOCOL_VERSION
    #: Trace id carried on the v2 envelope (``None`` when absent / v1).
    trace: str | None = None
    #: Dequeue priority claimed by the v2 envelope (higher first).
    priority: int = 0
    #: Caller's span id on the v2 envelope — parent of this hop's span.
    span: str | None = None
    #: Tenant claimed by the v2 envelope (``None`` when absent / v1).
    tenant: str | None = None


def request_version(payload: Any) -> int:
    """The protocol generation a raw request object claims (v1 if silent)."""
    if isinstance(payload, Mapping) and "v" in payload:
        version = payload["v"]
        if version not in SUPPORTED_VERSIONS:
            raise ProtocolError(
                f"unsupported protocol version {version!r}; "
                f"supported: {list(SUPPORTED_VERSIONS)}",
                field="v",
            )
        return int(version)
    return 1


def parse_request(payload: Any) -> ParsedRequest:
    """Validate a raw request object (either generation) into a spec.

    Raises :class:`~repro.api.errors.InvalidRequestError` subclasses on any
    malformed input; the caller decides how to report them (the service turns
    them into error responses, the client raises them directly).
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError("request must be a JSON object")
    version = request_version(payload)
    request_id = payload.get("id")
    if version >= 2:
        task = payload.get("task")
        if not isinstance(task, Mapping):
            raise ProtocolError("v2 requests must carry a 'task' object", field="task")
        trace = payload.get("trace")
        priority = payload.get("priority", 0)
        span = payload.get("span")
        tenant = payload.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise ProtocolError(
                "'tenant' must be a string naming the tenant", field="tenant"
            )
        return ParsedRequest(
            spec=spec_from_request(task),
            id=request_id,
            version=version,
            trace=str(trace) if trace is not None else None,
            priority=int(priority) if isinstance(priority, (int, float)) else 0,
            span=str(span) if span is not None else None,
            tenant=tenant or None,
        )
    return ParsedRequest(spec=spec_from_request(payload), id=request_id, version=1)


def encode_request(
    spec: TaskSpec,
    request_id: Any = None,
    version: int = PROTOCOL_VERSION,
    *,
    trace: str | None = None,
    priority: int = 0,
    span: str | None = None,
    tenant: str | None = None,
) -> dict[str, Any]:
    """Serialize a spec into a raw request object of the given generation.

    ``trace`` defaults to the active :class:`~repro.obs.Trace` context's id
    and ``span`` to the active :class:`~repro.obs.span.Span`'s id when one
    is bound (v2 only); ``priority`` is attached only when nonzero and
    ``tenant`` only when set.
    """
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(f"unsupported protocol version {version!r}", field="v")
    if version == 1:
        payload = spec.to_request()
        if request_id is not None:
            payload = {"id": request_id, **payload}
        return payload
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
    envelope: dict[str, Any] = {"v": version, "id": request_id, "task": spec.to_request()}
    if trace is not None:
        envelope["trace"] = trace
    if span is not None:
        envelope["span"] = span
    if priority:
        envelope["priority"] = int(priority)
    if tenant:
        envelope["tenant"] = tenant
    return envelope


def encode_success(
    result: TaskResult,
    request_id: Any,
    version: int,
    *,
    trace: str | None = None,
    tenant: str | None = None,
) -> dict[str, Any]:
    """Serialize a successful result in the caller's protocol generation."""
    if version >= 2:
        envelope: dict[str, Any] = {
            "v": version,
            "id": request_id,
            "ok": True,
            "result": result.to_payload(),
        }
        if trace is not None:
            envelope["trace"] = trace
        if tenant is not None:
            envelope["tenant"] = tenant
        return envelope
    return {
        "id": request_id,
        "ok": True,
        "answer": result.answer,
        "raw": result.raw,
        "tokens": result.tokens,
        "calls": result.calls,
    }


def encode_error(
    error: ErrorInfo,
    request_id: Any,
    version: int,
    *,
    trace: str | None = None,
    tenant: str | None = None,
) -> dict[str, Any]:
    """Serialize a failure in the caller's protocol generation."""
    if version >= 2:
        envelope: dict[str, Any] = {
            "v": version,
            "id": request_id,
            "ok": False,
            "error": error.to_payload(),
        }
        if trace is not None:
            envelope["trace"] = trace
        if tenant is not None:
            envelope["tenant"] = tenant
        return envelope
    return {"id": request_id, "ok": False, "error": error.message}


def decode_response(payload: Any) -> TaskResult:
    """Parse a raw response object (either generation) into a result."""
    if not isinstance(payload, Mapping):
        raise ProtocolError("response must be a JSON object")
    request_id = payload.get("id")
    trace = payload.get("trace")
    trace_id = str(trace) if trace is not None else None
    tenant = payload.get("tenant")
    tenant_name = str(tenant) if tenant is not None else None
    if not payload.get("ok", False):
        return TaskResult(
            answer=None,
            id=request_id,
            trace_id=trace_id,
            tenant=tenant_name,
            error=ErrorInfo.from_payload(payload.get("error", "unknown error")),
        )
    if "result" in payload:  # v2
        result = TaskResult.from_payload(payload["result"], request_id=request_id)
        result.trace_id = trace_id
        result.tenant = tenant_name
        return result
    return TaskResult(  # v1 flat success
        answer=payload.get("answer"),
        raw=str(payload.get("raw", "")),
        tokens=int(payload.get("tokens", 0)),
        calls=int(payload.get("calls", 0)),
        id=request_id,
    )


__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "ParsedRequest",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_success",
    "parse_request",
    "request_version",
]
