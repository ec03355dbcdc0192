"""Weighted-fair queueing across tenants, priority-ordered within a tenant.

:class:`WeightedFairQueue` implements start-time fair queueing (SFQ) over a
single shared resource — the execution engine's task slots, or a cluster
worker's work queue.  Every queued item carries a ``cost`` (1 per task at
the engine, requests in the batch at a worker) and belongs to a tenant with
a scheduling ``weight``; the queue maintains a global virtual time and one
virtual-finish tag per tenant:

* at ``push``, the item lands on its tenant's private heap, ordered by
  ``(-priority, arrival)`` — a plain priority heap, so **within** a
  tenant priority decides, then arrival;
* at ``pop``, every backlogged tenant bids ``start = max(vtime, vfinish)``
  and the lowest bid wins (ties broken by the bidders' head priorities,
  then arrival).  Virtual time jumps to the winner's start and the winner's
  ``vfinish`` advances by ``cost / weight`` — so a tenant with weight 2
  drains twice the cost per unit of virtual time, and an idle tenant
  re-enters at the current virtual time instead of cashing in saved credit.

With a single tenant every bid is trivially the minimum, so the dequeue
order collapses to the tenant heap's ``(-priority, arrival)`` — bit-identical
to a priority heap (property-tested in ``tests/tenancy/test_fairqueue.py``).

Two consumers hold the queue:

* :class:`~repro.serving.engine.ExecutionEngine` — every task of every
  caller waits in one queue for one of the engine's ``workers`` slots (on
  the engine's loop thread, so it needs no lock of its own);
* :class:`FairBlockingQueue` — the bounded blocking queue behind each
  cluster :class:`~repro.cluster.workers.ThreadWorker`.

Neither consumer needs tenancy to be configured: untagged work rides the
``default`` tenant at weight 1 and observes today's exact semantics.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any

#: Tenant every untagged item is accounted to.
DEFAULT_TENANT = "default"


class _TenantQueue:
    """One tenant's private backlog plus its virtual-finish tag."""

    __slots__ = ("name", "weight", "vfinish", "heap")

    def __init__(self, name: str, weight: float):
        self.name = name
        self.weight = weight
        self.vfinish = 0.0
        #: Heap of ``(-priority, seq, cost, item)``; ``seq`` is globally
        #: unique, so comparisons never reach the (unorderable) item.
        self.heap: list[tuple[int, int, float, Any]] = []


class WeightedFairQueue:
    """Start-time fair queue: weighted across tenants, priority within.

    Not thread-safe on its own — the engine uses it from its one loop
    thread, :class:`FairBlockingQueue` wraps it in a condition variable.
    """

    def __init__(self) -> None:
        self._vtime = 0.0
        self._tenants: dict[str, _TenantQueue] = {}
        self._seq = itertools.count()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(
        self,
        item: Any,
        *,
        tenant: str = DEFAULT_TENANT,
        weight: float = 1.0,
        priority: int = 0,
        cost: float = 1.0,
    ) -> None:
        """Queue ``item`` under ``tenant``; higher ``priority`` pops first
        within the tenant, ``cost`` is the virtual-time it will consume."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        if cost <= 0:
            raise ValueError("cost must be positive")
        queue = self._tenants.get(tenant)
        if queue is None:
            queue = self._tenants[tenant] = _TenantQueue(tenant, weight)
        queue.weight = weight  # config changes take effect on next pop
        heapq.heappush(queue.heap, (-int(priority), next(self._seq), float(cost), item))
        self._size += 1

    def _select(self) -> _TenantQueue:
        """The tenant the next ``pop`` serves (raises ``IndexError`` if empty)."""
        best: _TenantQueue | None = None
        best_bid: tuple[float, int, int] | None = None
        for queue in self._tenants.values():
            if not queue.heap:
                continue
            start = max(self._vtime, queue.vfinish)
            bid = (start, queue.heap[0][0], queue.heap[0][1])
            if best_bid is None or bid < best_bid:
                best, best_bid = queue, bid
        if best is None:
            raise IndexError("pop from an empty WeightedFairQueue")
        return best

    def peek(self) -> Any:
        """The item ``pop`` would return, without removing it."""
        return self._select().heap[0][3]

    def pop(self) -> Any:
        """Remove and return the fair-share winner, advancing virtual time."""
        queue = self._select()
        start = max(self._vtime, queue.vfinish)
        _, _, cost, item = heapq.heappop(queue.heap)
        self._vtime = start
        queue.vfinish = start + cost / queue.weight
        self._size -= 1
        return item


class FairBlockingQueue:
    """Bounded blocking queue dequeued weighted-fair across tenants.

    The cluster :class:`~repro.cluster.workers.ThreadWorker` spine:
    ``put`` blocks while ``maxsize`` items wait (backpressure, exactly like
    ``queue.PriorityQueue(maxsize=...)``), ``get`` blocks while empty, and
    :meth:`put_final` enqueues a shutdown sentinel served only after every
    real item drained — the fair-queue equivalent of the old
    ``(float("inf"), seq, _STOP)`` trick.
    """

    def __init__(self, maxsize: int = 0):
        self._maxsize = maxsize
        self._cond = threading.Condition()
        self._queue = WeightedFairQueue()
        self._final: list[Any] = []

    def qsize(self) -> int:
        with self._cond:
            return len(self._queue)

    def put(
        self,
        item: Any,
        *,
        tenant: str = DEFAULT_TENANT,
        weight: float = 1.0,
        priority: int = 0,
        cost: float = 1.0,
    ) -> None:
        with self._cond:
            while self._maxsize > 0 and len(self._queue) >= self._maxsize:
                self._cond.wait()
            self._queue.push(
                item, tenant=tenant, weight=weight, priority=priority, cost=cost
            )
            self._cond.notify_all()

    def put_final(self, item: Any) -> None:
        """Enqueue ``item`` to be served only once the fair queue is drained."""
        with self._cond:
            self._final.append(item)
            self._cond.notify_all()

    def get(self) -> Any:
        with self._cond:
            while len(self._queue) == 0 and not self._final:
                self._cond.wait()
            if len(self._queue) > 0:
                item = self._queue.pop()
            else:
                item = self._final.pop(0)
            self._cond.notify_all()
            return item


__all__ = [
    "DEFAULT_TENANT",
    "FairBlockingQueue",
    "WeightedFairQueue",
]
