"""Weighted-fair queueing across tenants, priority-ordered within a tenant.

:class:`WeightedFairQueue` implements start-time fair queueing (SFQ) over a
single shared resource — the execution engine's task slots.  Every queued
item carries a ``cost`` (1 per task at the engine) and belongs to a tenant
with a scheduling ``weight``; the queue maintains a global virtual time and
one virtual-finish tag per tenant:

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

One consumer holds the queue: :class:`~repro.serving.engine.ExecutionEngine`
— every task of every caller waits in one queue for one of the engine's
``workers`` slots (on the engine's loop thread, so it needs no lock of its
own).  A cluster :class:`~repro.cluster.workers.ThreadWorker` queues nothing
in front of its engine: its callers' batches meet in that same queue, on the
share the router names.

It does not need tenancy to be configured: untagged work rides the
``default`` tenant at weight 1 and observes today's exact semantics.
"""

from __future__ import annotations

import heapq
import itertools
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

    Not thread-safe on its own — the engine uses it from its one loop thread.
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


__all__ = [
    "DEFAULT_TENANT",
    "WeightedFairQueue",
]
