"""Admission control: bounded pending work, shed the rest, priorities first.

Unbounded queueing turns overload into latency collapse — every request
eventually times out instead of a few failing fast.  The serving service and
the cluster router instead run every JSON batch through an
:class:`AdmissionController`: a hard bound on *pending* requests (executing
plus queued).  A batch that would exceed the bound is rejected immediately
with a structured ``overloaded`` error carrying a retry-after hint, so
clients back off instead of piling on.

Capacity is the sum of the two knobs — ``max_inflight`` (requests the
executor should run at once) and ``max_queue_depth`` (requests allowed to
wait beyond that).  Leaving both ``None`` disables shedding entirely (the
pre-observability behaviour).

The companion dequeue policy lives in :mod:`repro.tenancy`: admitted tasks
wait for the engine's slots in a :class:`~repro.tenancy.WeightedFairQueue`,
which serves the fair-share tenant's highest-priority one first (v2 envelope
key ``"priority"``, higher first; FIFO within a priority) — so load shedding
never has to drop urgent work to protect itself.
"""

from __future__ import annotations

import threading
from typing import Any

from .metrics import MetricsRegistry, get_default_registry


class AdmissionController:
    """Bounds pending requests; sheds the excess instead of queueing it.

    Parameters
    ----------
    max_inflight:
        Requests the executor is expected to run concurrently.
    max_queue_depth:
        Requests allowed to wait beyond ``max_inflight``.
    retry_after:
        Back-off hint (seconds) attached to shed responses.
    name:
        Metric prefix (``<name>.admitted`` / ``<name>.shed`` counters and a
        ``<name>.pending`` gauge).
    """

    def __init__(
        self,
        max_inflight: int | None = None,
        max_queue_depth: int | None = None,
        *,
        retry_after: float = 0.05,
        name: str = "admission",
        metrics: MetricsRegistry | None = None,
    ):
        for label, knob in (
            ("max_inflight", max_inflight),
            ("max_queue_depth", max_queue_depth),
        ):
            if knob is not None and knob < 0:
                raise ValueError(f"{label} must be non-negative")
        if retry_after < 0:
            raise ValueError("retry_after must be non-negative")
        self.max_inflight = max_inflight
        self.max_queue_depth = max_queue_depth
        self.retry_after = retry_after
        self.name = name
        metrics = metrics or get_default_registry()
        self._m_admitted = metrics.counter(f"{name}.admitted")
        self._m_shed = metrics.counter(f"{name}.shed")
        self._m_pending = metrics.gauge(f"{name}.pending")
        self._pending = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int | None:
        """Total pending requests allowed; ``None`` means unbounded."""
        if self.max_inflight is None and self.max_queue_depth is None:
            return None
        return (self.max_inflight or 0) + (self.max_queue_depth or 0)

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    @property
    def inflight(self) -> int:
        """Pending requests presumed executing (capped at ``max_inflight``)."""
        pending = self.pending
        if self.max_inflight is None:
            return pending
        return min(pending, self.max_inflight)

    @property
    def queued(self) -> int:
        """Pending requests waiting beyond the inflight allowance."""
        pending = self.pending
        if self.max_inflight is None:
            return 0
        return max(0, pending - self.max_inflight)

    # ------------------------------------------------------------ life-cycle
    def try_acquire(self, n: int = 1) -> bool:
        """Reserve capacity for ``n`` requests; False means shed them.

        A batch larger than the whole capacity is still admitted when
        nothing is pending — otherwise it could never run and every retry
        would shed forever.  The bound is on *concurrent* pending work, not
        on single-batch size.
        """
        capacity = self.capacity
        with self._lock:
            if (
                capacity is not None
                and self._pending > 0
                and self._pending + n > capacity
            ):
                self._m_shed.inc(n)
                return False
            self._pending += n
        self._m_admitted.inc(n)
        self._m_pending.inc(n)
        return True

    def release(self, n: int = 1) -> None:
        """Return capacity once the ``n`` admitted requests finished."""
        with self._lock:
            self._pending = max(0, self._pending - n)
        self._m_pending.dec(n)

    def snapshot(self) -> dict[str, Any]:
        """The ``admission`` block of a stats snapshot (knobs + live state)."""
        return {
            "max_inflight": self.max_inflight,
            "max_queue_depth": self.max_queue_depth,
            "pending": self.pending,
            "inflight": self.inflight,
            "queue_depth": self.queued,
            "retry_after": self.retry_after,
        }


__all__ = ["AdmissionController"]
