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
whole stack: the planner reuses it, the router co-locates it.

The same ring places every *prompt* by its
:func:`~repro.serving.cache.prompt_key` (:class:`PromptOwners`), so a
cluster stores and computes each prompt once and a resize moves cache
entries by their own key.  Engine and dispatch threads read the ring while a
resize changes it, so it is published as one ``(points, owners)`` tuple,
replaced in one assignment: a reader sees it before or after, never half.
"""

from __future__ import annotations

import bisect
import hashlib
import weakref
from typing import Any, Iterable

from ..flow.planner import spec_key
from ..serving.cache import prompt_key

__all__ = ["HashRing", "PromptOwners", "spec_key"]


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
        #: Sorted virtual-node positions and, aligned with them, their
        #: nodes: replaced together, never mutated in place.
        self._ring: tuple[list[int], list[str]] = ([], [])
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
        points, owners = list(self._ring[0]), list(self._ring[1])
        for replica in range(self.replicas):
            point = _digest(f"{node}#{replica}")
            index = bisect.bisect(points, point)
            points.insert(index, point)
            owners.insert(index, node)
        self._ring = (points, owners)
        self._nodes.add(node)

    def remove(self, node: str) -> None:
        """Remove ``node`` from the ring; its keys re-route to neighbours."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        points, owners = self._ring
        keep = [i for i, owner in enumerate(owners) if owner != node]
        self._ring = ([points[i] for i in keep], [owners[i] for i in keep])

    # ---------------------------------------------------------------- routing
    def node_for(self, key: str) -> str:
        """The node owning ``key``: first virtual node clockwise of its digest.

        Raises
        ------
        LookupError
            If the ring is empty (every worker removed).
        """
        points, owners = self._ring
        if not points:
            raise LookupError("hash ring is empty: no live workers")
        return owners[bisect.bisect(points, _digest(key)) % len(points)]

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


class PromptOwners:
    """Which in-process worker's cache owns a prompt.

    The owner is ``ring.node_for(prompt_key(prompt))``, the worker a resize
    moves the prompt's entry to.  Every :class:`~repro.llm.cache.CachedLLM`
    :meth:`register`-ed here looks a prompt up, claims it and stores it at
    its owner's cache (see :mod:`repro.llm.cache`).  Caches are held weakly:
    a worker the router forgets takes its cache with it.  Until ``ring`` is
    set, or when it places a prompt on a worker with no cache here, the
    asker owns the prompt itself.
    """

    #: Placements remembered, by prompt: one miss asks for its owner four
    #: times (lookup, claim, batch lookup, store), each a SHA-256.
    MEMO = 512

    def __init__(self, ring: HashRing | None = None):
        self.ring = ring
        self._caches: Any = weakref.WeakValueDictionary()
        #: prompt -> (the ring's state it was placed on, worker id).
        self._placed: dict[str, tuple[object, str]] = {}

    def register(self, worker_id: str, cache: Any) -> None:
        """Make ``cache`` (a ``CachedLLM``) the owner of ``worker_id``'s prompts."""
        cache.owners = self
        self._caches[worker_id] = cache

    def owner_of(self, prompt: str) -> Any:
        """The cache owning ``prompt``, or ``None`` when it has none here."""
        ring = self.ring
        if ring is None:
            return None
        state = ring._ring  # replaced, never mutated, by a resize
        placed = self._placed.get(prompt)
        if placed is None or placed[0] is not state:
            try:
                placed = (state, ring.node_for(prompt_key(prompt)))
            except LookupError:
                return None
            if len(self._placed) >= self.MEMO:
                self._placed.clear()
            self._placed[prompt] = placed
        return self._caches.get(placed[1])
