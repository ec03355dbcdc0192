"""Crash supervision — auto-restarting dead workers in place.

The router survives a worker death (un-ring + requeue) but never brings
capacity back; the :class:`Supervisor` closes that loop.  It watches the
router's worker table, and when a registered worker has fallen off the ring
without draining — a crash, not a planned leave — it asks the router to
:meth:`~repro.cluster.router.Router.revive_worker` it: respawn through the
worker factory, re-open the *same* persistent shard directory (warm-restart
replay — every completion the dead incarnation flushed is served from disk,
zero recomputation), re-enter the ring at the same id so consistent hashing
hands back exactly the keys it owned.

Restart storms are damped by capped exponential backoff per worker id: the
first revival is immediate, each subsequent one of the same id waits
``backoff_base * 2^(n-1)`` seconds (capped at ``backoff_cap``), and
``max_restarts`` (when set) gives up on a crash-looping worker for good.
Every attempt increments the ``cluster.restarts`` counter and emits
``cluster.restart`` / ``cluster.restart_failed`` events.

Run it on its own daemon thread (``start``/``stop`` or the ``with`` form,
from :class:`~repro.obs.periodic.PeriodicLoop`) or drive it deterministically
from tests with :meth:`check_once` and an injected ``clock``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from ..obs.events import emit_event
from ..obs.metrics import MetricsRegistry, get_default_registry
from ..obs.periodic import PeriodicLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .router import Router

__all__ = ["Supervisor"]


class Supervisor(PeriodicLoop):
    """Auto-restarts crashed workers through the router's worker factory.

    Parameters
    ----------
    router:
        The cluster router to supervise (must have a worker factory — the
        :meth:`~repro.cluster.router.Router.local`/``spawn`` constructors
        install one).
    interval:
        Seconds between :meth:`check_once` passes of the started loop
        (thread ``repro-supervisor``).
    backoff_base / backoff_cap:
        Exponential-backoff schedule between restarts of one worker id:
        ``min(cap, base * 2^(attempts-1))`` seconds after each revival.
    max_restarts:
        Give up on a worker id after this many revivals (``None`` = never).
    clock:
        Monotonic seconds source (injected by deterministic tests).
    """

    def __init__(
        self,
        router: "Router",
        *,
        interval: float = 1.0,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        max_restarts: int | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(self.check_once, interval, "repro-supervisor")
        self.router = router
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_restarts = max_restarts
        self._clock = clock
        self._metrics = metrics or get_default_registry()
        self._m_given_up = self._metrics.counter("cluster.restarts_given_up")
        #: Revivals attempted per worker id (drives the backoff exponent).
        self._attempts: dict[str, int] = {}
        #: Monotonic time before which a worker id must not be revived.
        self._not_before: dict[str, float] = {}

    # ------------------------------------------------------------------ policy
    def backoff(self, attempts: int) -> float:
        """Delay before the next revival after ``attempts`` restarts."""
        if attempts <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempts - 1)))

    def crashed_workers(self) -> list[str]:
        """Registered workers off the ring without draining (the crashed)."""
        live = self.router.live_workers
        draining = self.router.draining_workers
        return [
            worker_id
            for worker_id in list(self.router.workers)
            if worker_id not in live and worker_id not in draining
        ]

    # ------------------------------------------------------------------ checks
    def check_once(self) -> list[str]:
        """One supervision pass; returns the worker ids revived.

        Sweeps health first (so crashes the router has not noticed yet are
        discovered), then revives every crashed worker whose backoff window
        has elapsed.
        """
        self.router.check_health()
        revived: list[str] = []
        now = self._clock()
        for worker_id in self.crashed_workers():
            attempts = self._attempts.get(worker_id, 0)
            if self.max_restarts is not None and attempts >= self.max_restarts:
                continue
            if now < self._not_before.get(worker_id, 0.0):
                continue
            self._attempts[worker_id] = attempts + 1
            self._not_before[worker_id] = now + self.backoff(attempts + 1)
            try:
                self.router.revive_worker(worker_id)
            except Exception as exc:
                emit_event(
                    "cluster.restart_failed",
                    worker=worker_id,
                    attempt=attempts + 1,
                    error=str(exc),
                )
                if (
                    self.max_restarts is not None
                    and self._attempts[worker_id] >= self.max_restarts
                ):
                    self._m_given_up.inc()
                continue
            revived.append(worker_id)
        return revived

    def reset(self, worker_id: str) -> None:
        """Forget a worker's backoff history (it has proven stable)."""
        self._attempts.pop(worker_id, None)
        self._not_before.pop(worker_id, None)
