"""The stats wire type: a metrics snapshot as one request.

:class:`StatsSpec` registers under the wire type ``"stats"`` next to the
seven task specs and the plan-level ``pipeline`` type, so any client of the
line protocol can ask a running service (or cluster router) for its
observability snapshot::

    {"v": 2, "id": 1, "task": {"type": "stats"}}

The response's ``result.answer`` is the snapshot object: the
:class:`~repro.obs.MetricsRegistry` contents (counters, gauges, histogram
percentiles) plus a front-end section (service totals, or the aggregated
:class:`~repro.cluster.ClusterStats` for a cluster).  :meth:`repro.api.Client.stats`
and ``python -m repro stats`` are thin wrappers over this request.

A stats request is answered *before* admission control and never enters
the engine — observability stays available exactly when the service is
overloaded.  Like the ``pipeline`` type it is not a single pipeline task,
so ``to_task()`` refuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .errors import InvalidRequestError
from .specs import TaskSpec, register_spec


@register_spec
@dataclass(frozen=True)
class StatsSpec(TaskSpec):
    """Ask the serving front-end for its metrics snapshot."""

    type: ClassVar[str] = "stats"

    #: Restrict the snapshot to metric names under this dotted prefix.
    prefix: str = ""

    #: Zero every metric (in place) after taking the snapshot, so the next
    #: snapshot describes only what happened since — benchmark isolation.
    reset: bool = False

    #: Restrict the snapshot to one tenant: the ``metrics`` section narrows
    #: to ``tenant.<resolved>.*`` and the ``tenancy`` section reports only
    #: that tenant's runtime state.  Empty means every tenant.
    tenant: str = ""

    def validate(self) -> None:
        if not isinstance(self.prefix, str):
            raise InvalidRequestError(
                "'prefix' must be a string of a dotted metric-name prefix",
                field="prefix",
            )
        if not isinstance(self.reset, bool):
            raise InvalidRequestError(
                "'reset' must be a boolean",
                field="reset",
            )
        if not isinstance(self.tenant, str):
            raise InvalidRequestError(
                "'tenant' must be a string naming the tenant",
                field="tenant",
            )

    def to_task(self):
        raise InvalidRequestError(
            "a stats request is answered by the serving front-end, not the "
            "pipeline; submit it through a Client (or Client.stats())",
            field="type",
        )


__all__ = ["StatsSpec"]
