"""Sharded multi-worker serving with cache affinity and live elasticity.

``repro.cluster`` scales the single-process serving tier horizontally: a
:class:`Router` consistent-hashes task specs across N workers — in-process
:class:`ThreadWorker` shards or spawned :class:`SubprocessWorker` processes
speaking the v2 TCP protocol — so each worker owns a disjoint persistent
cache shard and repeated work always lands where its cache is.

The worker set is **elastic at runtime**: :meth:`Router.add_worker` /
:meth:`Router.remove_worker` resize the ring while requests are in flight,
migrating only the hash-minimal set of cache entries between shards; a
:class:`Supervisor` auto-restarts crashed workers in place (same id, same
shard, warm-restart replay) with capped exponential backoff; and an
:class:`Autoscaler` drives both from the rolling load windows.  The
:class:`FaultInjector` harness makes every one of those transitions
deterministically testable.

Entry points:

* :meth:`repro.api.Client.cluster` — the facade constructor most code uses;
* :meth:`Router.local` / :meth:`Router.spawn` — direct router assembly;
* ``python -m repro serve --cluster --workers 4 [--autoscale]`` — the
  sharded service CLI.

See ``docs/architecture.md`` for where the cluster tier sits in the stack.
"""

from .autoscaler import Autoscaler
from .faults import FaultInjector, FaultyWorker
from .hashing import HashRing, spec_key
from .router import Router
from .stats import ClusterStats, WorkerStats
from .supervisor import Supervisor
from .workers import (
    ClusterError,
    SubprocessWorker,
    ThreadWorker,
    Worker,
    WorkerDeadError,
)

__all__ = [
    "Autoscaler",
    "ClusterError",
    "ClusterStats",
    "FaultInjector",
    "FaultyWorker",
    "HashRing",
    "Router",
    "SubprocessWorker",
    "Supervisor",
    "ThreadWorker",
    "Worker",
    "WorkerDeadError",
    "WorkerStats",
    "spec_key",
]
