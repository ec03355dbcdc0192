"""Deterministic fault injection for the elastic cluster.

Elasticity is only trustworthy if every transition — join, drained leave,
crash, restart, autoscale — is *driven* into its failure modes rather than
observed by luck.  :class:`FaultInjector` is the seedable harness
``tests/cluster/test_elasticity.py`` uses to do that:

* **kill-worker-at-Nth-submit** — the wrapped worker hard-kills itself the
  moment its Nth batch arrives, *before* any backend work happens, so the
  requeue path's exactly-once property is assertable via the ``llm.calls``
  counter;
* **hang-ping** — liveness probes stall for a configured delay (the gray
  failure a health sweep must tolerate);
* **torn-migration** — the next shard-to-shard migration truncates its
  target mid-line, exercising the JSONL loader's torn-line tolerance;
* **slow-drain** — every submit to a worker crawls, stretching the window
  ``remove_worker``'s drain must wait out.

Everything is deterministic: rules fire at exact counters, and the only
randomness — :meth:`FaultInjector.plan_kill` choosing a victim and a kill
point — comes from a seeded :class:`random.Random`, so the same seed always
produces the same schedule (asserted by the test suite).  Every injection
is appended to :attr:`FaultInjector.log` for reproducibility assertions.
"""

from __future__ import annotations

import random
import threading
import time
from typing import TYPE_CHECKING, Iterable, Sequence

from ..tenancy import DEFAULT_TENANT
from .workers import Worker, WorkerDeadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.results import TaskResult
    from ..api.specs import TaskSpec
    from ..serving.cache import PersistentCache

__all__ = ["FaultInjector", "FaultyWorker"]


class FaultInjector:
    """Seedable rule book of cluster faults.

    Parameters
    ----------
    seed:
        Seed of the injector's private RNG.  Only :meth:`plan_kill` draws
        from it; armed rules themselves fire deterministically.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        #: Every injection that fired, in order: ``{"fault", "worker", ...}``.
        self.log: list[dict] = []
        self._lock = threading.Lock()
        self._kill_at: dict[str, int] = {}
        self._submits: dict[str, int] = {}
        self._hang_ping: dict[str, float] = {}
        self._slow_submit: dict[str, float] = {}
        self._tears_armed = 0

    # ------------------------------------------------------------------- rules
    def kill_at_submit(self, worker_id: str, nth: int) -> None:
        """Arm: ``worker_id`` hard-kills on its ``nth`` submit *after* arming.

        Counted from the moment the rule is armed (1-based), so a warmed
        cluster can still be told "die on your next submit" — the absolute
        submit history does not shift the kill point.
        """
        if nth < 1:
            raise ValueError("nth must be >= 1")
        with self._lock:
            self._kill_at[worker_id] = self._submits.get(worker_id, 0) + nth

    def hang_ping(self, worker_id: str, seconds: float) -> None:
        """Arm: every ping of ``worker_id`` stalls ``seconds`` first."""
        with self._lock:
            self._hang_ping[worker_id] = seconds

    def slow_drain(self, worker_id: str, seconds: float) -> None:
        """Arm: every submit to ``worker_id`` sleeps ``seconds`` first."""
        with self._lock:
            self._slow_submit[worker_id] = seconds

    def torn_migration(self, times: int = 1) -> None:
        """Arm: the next ``times`` migrations tear their target mid-line."""
        with self._lock:
            self._tears_armed += times

    def plan_kill(
        self, worker_ids: Iterable[str], max_submit: int = 5
    ) -> tuple[str, int]:
        """Seed-derived kill point: pick a victim and an Nth submit, arm it.

        The only RNG consumer — with the same seed and the same inputs the
        plan is identical, which is what makes a fault schedule shareable
        in a bug report (``FaultInjector(seed=...)`` reproduces it).
        """
        victim = self.rng.choice(sorted(worker_ids))
        nth = self.rng.randint(1, max_submit)
        self.kill_at_submit(victim, nth)
        return victim, nth

    # ------------------------------------------------------------------- hooks
    def wrap(self, worker: Worker) -> "FaultyWorker":
        """Decorate ``worker`` so the armed rules apply to it.

        Suitable as the ``worker_decorator`` of
        :meth:`repro.cluster.router.Router.local` — revived workers are
        wrapped again, and their submit counter keeps counting across
        incarnations (rules address the worker *id*, not the object).
        """
        return FaultyWorker(worker, self)

    def on_submit(self, worker: Worker) -> None:
        """Consult the rules before a submit reaches ``worker``."""
        worker_id = worker.worker_id
        with self._lock:
            count = self._submits.get(worker_id, 0) + 1
            self._submits[worker_id] = count
            kill_at = self._kill_at.get(worker_id)
            slow = self._slow_submit.get(worker_id)
        if slow:
            self.log.append(
                {"fault": "slow_drain", "worker": worker_id, "seconds": slow}
            )
            time.sleep(slow)
        if kill_at is not None and count == kill_at:
            self.log.append(
                {"fault": "kill_at_submit", "worker": worker_id, "submit": count}
            )
            worker.kill()
            raise WorkerDeadError(
                f"fault injection killed {worker_id} at submit {count}"
            )

    def on_ping(self, worker: Worker) -> None:
        """Consult the rules before a ping reaches ``worker``."""
        with self._lock:
            hang = self._hang_ping.get(worker.worker_id)
        if hang:
            self.log.append(
                {"fault": "hang_ping", "worker": worker.worker_id, "seconds": hang}
            )
            time.sleep(hang)

    def maybe_tear(self, shard: "PersistentCache") -> None:
        """Truncate the shard's log mid-line if a tear is armed.

        Models a migration writer crashing mid-append: the torn final line
        must be skipped by the loader, costing at most one cache miss —
        never a wrong answer.
        """
        with self._lock:
            if self._tears_armed <= 0:
                return
            self._tears_armed -= 1
        target = shard.log_path
        raw = target.read_bytes() if target.exists() else b""
        if not raw:
            return
        last_line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        cut = last_line_start + max(1, (len(raw) - last_line_start) // 2)
        target.write_bytes(raw[:cut])
        self.log.append(
            {"fault": "torn_migration", "file": target.name, "kept_bytes": cut}
        )

    def submits(self, worker_id: str) -> int:
        """How many submits ``worker_id`` has seen (deterministic clock)."""
        with self._lock:
            return self._submits.get(worker_id, 0)


class FaultyWorker(Worker):
    """A worker wrapper that consults a :class:`FaultInjector` first.

    Everything else delegates verbatim, so a wrapped worker is
    indistinguishable from its inner one until a rule fires — the router,
    supervisor and autoscaler never know the harness is there.
    """

    def __init__(self, inner: Worker, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    @property
    def worker_id(self) -> str:  # type: ignore[override]
        return self.inner.worker_id

    def submit(
        self,
        specs: "Sequence[TaskSpec]",
        priority: int = 0,
        *,
        tenant: str = DEFAULT_TENANT,
        weight: float = 1.0,
    ) -> "list[TaskResult]":
        self.injector.on_submit(self.inner)
        return self.inner.submit(specs, priority, tenant=tenant, weight=weight)

    def ping(self) -> bool:
        self.injector.on_ping(self.inner)
        return self.inner.ping()

    def stats(self):
        return self.inner.stats()

    def shard(self):
        return self.inner.shard()

    def shard_path(self):
        return self.inner.shard_path()

    def close(self) -> None:
        self.inner.close()

    def kill(self) -> None:
        self.inner.kill()
