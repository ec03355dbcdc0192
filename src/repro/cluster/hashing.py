"""Consistent hashing — how task specs pick their shard.

The router places every :class:`~repro.api.specs.TaskSpec` on a classic
consistent-hash ring: each worker contributes ``replicas`` virtual nodes
(digests of ``"<worker-id>#<replica>"``), a spec hashes by its canonical
wire form, and the first virtual node clockwise owns it.  Two properties
make this the right structure for cache affinity:

* **stability** — the digests involve no process-local state (no Python
  ``hash()``), so the same spec routes to the same worker across batches,
  connections and restarts.  Re-submitting yesterday's workload hits each
  worker's warm :class:`~repro.serving.cache.PersistentCache` shard.
* **minimal disruption** — removing a dead worker re-routes only the keys
  that worker owned; every other spec keeps its shard (and its cache).

The routing key is :func:`repro.flow.planner.spec_key` — the *same* digest
the flow planner dedups on — so "identical work" means one thing across the
whole stack: the planner reuses it, the router co-locates it, the shard's
cache serves it.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

from ..flow.planner import spec_key

__all__ = ["HashRing", "spec_key"]


def _digest(value: str) -> int:
    """Stable 64-bit position on the ring for an arbitrary string."""
    return int.from_bytes(
        hashlib.sha256(value.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A consistent-hash ring over string node ids.

    Parameters
    ----------
    nodes:
        Initial node ids (worker ids).
    replicas:
        Virtual nodes per id; more replicas smooth the key distribution
        at the cost of a larger (still tiny) ring.

    Examples
    --------
    >>> ring = HashRing(["w0", "w1", "w2"])
    >>> ring.node_for("some-spec-key") in {"w0", "w1", "w2"}
    True
    >>> ring.node_for("some-spec-key") == ring.node_for("some-spec-key")
    True
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be positive")
        self.replicas = replicas
        #: Sorted virtual-node positions; aligned with ``_owners``.
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    # ---------------------------------------------------------------- members
    @property
    def nodes(self) -> set[str]:
        """The live node ids currently on the ring."""
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add ``node``'s virtual nodes to the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = _digest(f"{node}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Remove ``node`` from the ring; its keys re-route to neighbours."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # ---------------------------------------------------------------- routing
    def node_for(self, key: str) -> str:
        """The node owning ``key``: first virtual node clockwise of its digest.

        Raises
        ------
        LookupError
            If the ring is empty (every worker removed).
        """
        if not self._points:
            raise LookupError("hash ring is empty: no live workers")
        index = bisect.bisect(self._points, _digest(key)) % len(self._points)
        return self._owners[index]

    def distribution(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` each node owns (diagnostics)."""
        counts: dict[str, int] = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts

    def with_node(self, node: str) -> "HashRing":
        """A copy of this ring with ``node`` added (placement what-if)."""
        ring = HashRing(self._nodes, replicas=self.replicas)
        ring.add(node)
        return ring
