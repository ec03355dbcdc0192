"""Load-driven elasticity — a policy object that resizes the cluster.

The :class:`Autoscaler` closes the control loop the router's live
:meth:`~repro.cluster.router.Router.add_worker` /
:meth:`~repro.cluster.router.Router.remove_worker` primitives enable: it
watches the router's rolling observability windows (the
:class:`~repro.obs.timeseries.TimeSeriesSampler` inside the router's health
monitor — the same series ``repro top`` renders) and scales the worker count
between ``min_workers`` and ``max_workers``.

The policy is deliberately boring — mean inflight per live worker over a
short window, compared against hysteresis thresholds, with a cooldown after
every resize:

* ``load >= scale_up_at``  and room below ``max_workers`` → **join** one
  worker (hash-minimal shard migration warms it before it takes traffic);
* ``load <= scale_down_at`` and slack above ``min_workers`` → **drained
  leave** of the highest-numbered worker (its shard entries migrate to the
  survivors, so nothing is recomputed later);
* anything in between → hold.

``scale_down_at`` must sit well below ``scale_up_at`` — the gap is the
hysteresis band that keeps the cluster from flapping.  Every decision is
emitted as an ``autoscale.decision`` event; the resize it makes is counted
in the router's stats (``ClusterStats.resizes``).

``repro serve --cluster --autoscale`` runs it on its own daemon thread
(``start``/``stop``, from :class:`~repro.obs.periodic.PeriodicLoop`); tests
drive :meth:`tick` directly with an injected ``clock``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from ..obs.events import emit_event
from ..obs.periodic import PeriodicLoop
from ..obs.timeseries import parse_window
from .workers import ClusterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .router import Router

__all__ = ["Autoscaler"]


class Autoscaler(PeriodicLoop):
    """Scales a router between ``min_workers`` and ``max_workers``.

    Parameters
    ----------
    router:
        The elastic router to resize (needs a worker factory for joins).
    min_workers / max_workers:
        Inclusive bounds on the live worker count.
    scale_up_at / scale_down_at:
        Mean inflight specs *per live worker* (over ``window``) above which
        the cluster grows, and below which it shrinks.  The gap between
        them is the hysteresis band.
    window:
        Rolling window label (``"10s"``/``"1m"``/...) the load signal is
        averaged over.
    cooldown:
        Minimum seconds between resizes — lets migrations and the load
        signal settle before the next decision.
    clock:
        Monotonic seconds source (injected by deterministic tests).
    """

    def __init__(
        self,
        router: "Router",
        *,
        min_workers: int = 1,
        max_workers: int = 8,
        scale_up_at: float = 4.0,
        scale_down_at: float = 0.5,
        window: str = "10s",
        cooldown: float = 30.0,
        interval: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if scale_down_at >= scale_up_at:
            raise ValueError(
                "scale_down_at must be below scale_up_at (hysteresis band)"
            )
        super().__init__(self.tick, interval, "repro-autoscaler")
        self.router = router
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.scale_up_at = scale_up_at
        self.scale_down_at = scale_down_at
        self.window = window
        self._window_seconds = parse_window(window)
        self.cooldown = cooldown
        self._clock = clock
        self._last_resize: float | None = None

    # ------------------------------------------------------------------ signal
    def load(self) -> float | None:
        """Mean inflight specs per live worker over the rolling window.

        ``None`` until the sampler has enough history (the policy holds).
        """
        sampler = self.router.monitor.sampler
        stats = sampler.gauge_stats("router.inflight", self._window_seconds)
        if stats is None:
            return None
        live = max(len(self.router.live_workers), 1)
        return stats["mean"] / live

    # ------------------------------------------------------------------ policy
    def decide(self) -> str | None:
        """``"up"``, ``"down"`` or ``None`` — pure policy, no side effects."""
        load = self.load()
        if load is None:
            return None
        live = len(self.router.live_workers)
        if load >= self.scale_up_at and live < self.max_workers:
            return "up"
        if load <= self.scale_down_at and live > self.min_workers:
            return "down"
        return None

    def tick(self) -> str | None:
        """One control-loop pass: sample, decide, maybe resize.

        Returns the action taken (``"up"``/``"down"``) or ``None``.
        Honors the cooldown; a failed resize (e.g. the ring refuses to
        shrink below one worker) is swallowed after an event so the loop
        stays alive.
        """
        # Make sure the window reflects the present even when sampling is
        # driven by an injected clock (tests) or a slow monitor interval.
        self.router.monitor.sampler.ensure_fresh()
        now = self._clock()
        if self._last_resize is not None and now - self._last_resize < self.cooldown:
            return None
        action = self.decide()
        if action is None:
            return None
        load = self.load()
        try:
            if action == "up":
                worker_id = self.router.add_worker()
            else:
                worker_id = self._pick_victim()
                self.router.remove_worker(worker_id)
        except ClusterError as exc:
            emit_event("autoscale.decision", action=action, error=str(exc))
            self._last_resize = now  # still back off before retrying
            return None
        self._last_resize = now
        emit_event(
            "autoscale.decision",
            action=action,
            worker=worker_id,
            load=round(load, 3) if load is not None else None,
            workers=len(self.router.live_workers),
        )
        return action

    def _pick_victim(self) -> str:
        """The worker a scale-down drains: the highest-numbered live one.

        Removing the most recent joiner keeps the id space dense, so the
        next scale-up reuses the id (and its still-warm shard directory).
        """
        return max(self.router.live_workers)
