"""Structured API errors shared by the client facade and the wire protocol.

PR 1's service reported failures as bare strings, which forced clients to
parse prose.  The v2 protocol instead carries an :class:`ErrorInfo` object —
a stable ``code``, a human-readable ``message`` and (for validation errors)
the offending ``field`` — and the exceptions below map onto it.

:class:`InvalidRequestError` deliberately subclasses :class:`ValueError` so
that pre-existing call sites (and tests) that expect ``ValueError`` from
request validation keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True)
class ErrorInfo:
    """Wire-serializable description of a failure."""

    code: str
    message: str
    field: str | None = None
    #: Back-off hint (seconds) carried by admission-control rejections.
    retry_after: float | None = None
    #: Optional structured context (e.g. `overloaded` carries the shedding
    #: controller's `queue_depth` / `inflight` / `capacity` at shed time).
    details: Mapping[str, Any] | None = None

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.field is not None:
            payload["field"] = self.field
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        if self.details is not None:
            payload["details"] = dict(self.details)
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "ErrorInfo":
        if not isinstance(payload, dict):
            return cls(code="error", message=str(payload))
        retry_after = payload.get("retry_after")
        details = payload.get("details")
        return cls(
            code=str(payload.get("code", "error")),
            message=str(payload.get("message", "")),
            field=payload.get("field"),
            retry_after=float(retry_after) if retry_after is not None else None,
            details=dict(details) if isinstance(details, dict) else None,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" (field: {self.field})" if self.field else ""
        return f"[{self.code}] {self.message}{where}"


class ApiError(Exception):
    """Base class of all errors raised by the :mod:`repro.api` facade."""

    code = "error"

    def __init__(
        self,
        message: str,
        *,
        field: str | None = None,
        code: str | None = None,
        retry_after: float | None = None,
        details: Mapping[str, Any] | None = None,
    ):
        super().__init__(message)
        self.message = message
        self.field = field
        self.retry_after = retry_after
        self.details = dict(details) if details is not None else None
        if code is not None:
            self.code = code

    @property
    def info(self) -> ErrorInfo:
        return ErrorInfo(
            code=self.code,
            message=self.message,
            field=self.field,
            retry_after=self.retry_after,
            details=self.details,
        )

    @classmethod
    def from_info(cls, info: ErrorInfo) -> "ApiError":
        return cls(
            info.message,
            field=info.field,
            code=info.code,
            retry_after=info.retry_after,
            details=info.details,
        )


class InvalidRequestError(ApiError, ValueError):
    """A request failed validation before reaching the pipeline."""

    code = "invalid_request"


class UnknownTaskTypeError(InvalidRequestError):
    """The request named a task type outside the registry."""

    code = "unknown_task_type"


class ProtocolError(InvalidRequestError):
    """The request envelope itself was malformed (bad version, bad shape)."""

    code = "protocol_error"


class TransportError(ApiError):
    """The remote service could not be reached or answered garbage."""

    code = "transport_error"


class TaskFailedError(ApiError):
    """The service answered with an error response for a submitted task."""

    code = "task_failed"

    @classmethod
    def from_info(cls, info: ErrorInfo) -> "TaskFailedError":
        return cls(
            info.message,
            field=info.field,
            code=info.code,
            retry_after=info.retry_after,
            details=info.details,
        )


class OverloadedError(ApiError):
    """Admission control shed the request; retry after ``retry_after`` s.

    Raised client-side when a shed response surfaces through ``submit``;
    service-side it is encoded directly as an ``overloaded`` error response
    (see :class:`repro.obs.AdmissionController`).
    """

    code = "overloaded"


class RateLimitedError(ApiError):
    """A per-tenant limit shed the request; retry after ``retry_after`` s.

    The tenancy counterpart of :class:`OverloadedError`: the request was
    rejected by its tenant's token bucket or ``max_inflight`` cap, not by
    global capacity (see :class:`repro.tenancy.TenancyController`).
    ``details`` carries the tenant name, the violated limit and the
    ``reason`` (``"rate"`` or ``"inflight"``).
    """

    code = "rate_limited"


#: Every ``error.code`` value a v2 response can carry, with the condition it
#: reports.  This is the registry ``scripts/gen_protocol_docs.py`` renders
#: into ``docs/wire-protocol.md`` — add new codes here, not just inline.
ERROR_CODES: dict[str, str] = {
    "invalid_request": "A task payload failed validation; `field` names the offending key.",
    "unknown_task_type": "The request named a `type` outside the spec registry.",
    "protocol_error": "The envelope itself was malformed (a `v` other than the integer 2, a missing `task` object, a non-finite `priority`, a non-string `tenant`). A flat request without `\"v\": 2` gets this with `field: \"v\"`: wrap its task fields as `{\"v\": 2, \"id\": ..., \"task\": {...}}`.",
    "bad_json": "A request line never parsed as JSON (reported in position).",
    "bad_frame": "A binary-framed connection lost frame sync (torn frame, oversized declared length, undecodable payload), or a handshake did not offer the `bin` framing; the response is best-effort with `id: null` and the connection closes — reconnect to recover.",
    "pipeline_failed": "A `pipeline` request's plan failed mid-execution; the message names the stage.",
    "internal_error": "The service failed while running the batch the request rode in (a backend error, say). Every request of that batch gets this, each was run once, and the connection stays open: resubmit to retry.",
    "overloaded": "Admission control shed the request (`max_inflight`/`max_queue_depth` exceeded); `retry_after` hints the back-off in seconds and `details` carries the controller state at shed time (`queue_depth`, `inflight`, `pending`, `capacity`).",
    "rate_limited": "The request's tenant exceeded its token-bucket rate or `max_inflight` cap; `retry_after` hints the back-off in seconds and `details` carries the tenant state at shed time (`tenant`, `reason` — `rate` or `inflight` —, `rate`, `burst`, `max_inflight`, `inflight`).",
    "task_failed": "Client-side marker for an error response surfaced through `submit`.",
    "transport_error": "Client-side: the service was unreachable or answered garbage.",
    "error": "Catch-all for a peer's error field that is not a structured object.",
}
