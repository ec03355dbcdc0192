"""Unified client API: typed task specs, a versioned protocol, one facade.

The paper's thesis is a *single* interface to every data-manipulation task;
this package is that interface at the system level.  It has three layers:

* :mod:`repro.api.specs` — one typed ``TaskSpec`` per task (all seven),
  validating requests and round-tripping through the wire form via a single
  registry;
* :mod:`repro.api.protocol` — the v2 request/response envelope and
  structured :class:`~repro.api.errors.ErrorInfo` objects;
* :mod:`repro.api.client` — the :class:`Client` facade, offering identical
  ``submit`` / ``submit_many`` / ``asubmit_many`` semantics over the
  in-process engine (``Client.local``) and the TCP service
  (``Client.remote``).

Quickstart::

    from repro.api import Client, TransformationSpec

    with Client.local(seed=0) as client:
        result = client.submit(
            TransformationSpec(value="19990415", examples=[["20000101", "2000-01-01"]])
        )
        print(result.answer)   # "1999-04-15"
"""

from .client import Client
from .errors import (
    ERROR_CODES,
    ApiError,
    ErrorInfo,
    InvalidRequestError,
    OverloadedError,
    ProtocolError,
    RateLimitedError,
    TaskFailedError,
    TransportError,
    UnknownTaskTypeError,
)
from .protocol import (
    PROTOCOL_VERSION,
    ParsedRequest,
    decode_response,
    encode_error,
    encode_request,
    encode_success,
    parse_request,
)
from .pipeline_spec import PipelineSpec
from .results import TaskResult
from .stats_spec import StatsSpec
from .specs import (
    SPEC_TYPES,
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ExtractionSpec,
    ImputationSpec,
    JoinDiscoverySpec,
    TableQASpec,
    TaskSpec,
    TransformationSpec,
    register_spec,
    spec_from_request,
    task_types,
)

__all__ = [
    "ApiError",
    "Client",
    "ERROR_CODES",
    "EntityResolutionSpec",
    "ErrorDetectionSpec",
    "ErrorInfo",
    "ExtractionSpec",
    "ImputationSpec",
    "InvalidRequestError",
    "JoinDiscoverySpec",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "ParsedRequest",
    "PipelineSpec",
    "ProtocolError",
    "RateLimitedError",
    "SPEC_TYPES",
    "StatsSpec",
    "TableQASpec",
    "TaskFailedError",
    "TaskResult",
    "TaskSpec",
    "TransformationSpec",
    "TransportError",
    "UnknownTaskTypeError",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_success",
    "parse_request",
    "register_spec",
    "spec_from_request",
    "task_types",
]
