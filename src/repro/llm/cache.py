"""A caching wrapper around any language model.

Production pipelines over data lakes re-issue many identical prompts (e.g. the
same metadata-retrieval prompt for every record of a column); caching them cuts
cost and makes reruns deterministic.  The wrapper preserves the
:class:`~repro.llm.base.LanguageModel` interface, so it can be dropped in front
of the simulated model or a real API client alike.

The wrapper is thread-safe under two locks.  The *fetch* lock is held across
a whole lookup-or-compute (lookup, inner-model call, store), so two callers
never compute one prompt twice; the short *state* lock guards the LRU, the
counters, the usage tracker and the claim table, and is never held across the
inner call.  :meth:`CachedLLM.cached` — the serving engine's micro-batcher
asks it from its event loop before it queues a prompt — takes state locks
only, so a hit is answered while another thread's round trip is still in
flight.  An optional *persistent* backend (see
:class:`~repro.serving.cache.PersistentCache`) spills entries to disk so
that a warmed cache survives across processes; any object with
``get(prompt) -> Entry | None`` and ``put(prompt, entry)`` works.

An entry is ``(text, prompt_tokens, completion_tokens)``: the text and the
counts of the :class:`~repro.llm.base.Completion` the inner model returned
for the miss, kept with the entry in the LRU and the persistent store and
evicted with it.  The cache tokenizes nothing: what a hit reports is what
the backend billed.

**Owners.**  The in-process workers of a cluster share one owner map
(:class:`~repro.cluster.hashing.PromptOwners`, set as ``owners``; without
one a cache owns every prompt): a prompt's entry, in the LRU and the
persistent store, lives in the cache of the worker the ring places its
prompt key on, and every lookup and store goes there.  The asker counts the
hit or miss and records the usage, and a miss is computed by the asker's
backend, so ``llm.calls`` counts where the round trip went.

**Claims.**  A miss a batcher will compute is claimed at its owner
(:meth:`CachedLLM.claim`).  An asker of another batcher — another worker's
engine — waits on the claim's ``concurrent.futures.Future`` instead of
computing the prompt again; the holder's own repeated asks queue as before
and its batches serve them once.  The holder releases the claim
(:meth:`CachedLLM.release`) when its request ends: its waiters then ask
again (a hit, or a claim of their own), or get the exception the batch
failed with.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Protocol, Sequence, runtime_checkable

from ..obs.metrics import MetricsRegistry, get_default_registry
from ..obs.span import span
from .base import Completion, LanguageModel

#: ``(text, prompt_tokens, completion_tokens)``: one stored completion.
Entry = tuple[str, int, int]


@dataclass(eq=False)
class Claim:
    """One claimed miss: the cache it is claimed at, the batcher computing
    it, and the future its waiters share (made when the first one waits)."""

    owner: "CachedLLM"
    holder: object
    future: "Future[None] | None" = None


@runtime_checkable
class CacheBackend(Protocol):
    """Duck type of a persistent completion store: entries by prompt."""

    def get(self, prompt: str) -> Entry | None: ...

    def put(self, prompt: str, entry: Entry) -> None: ...


class CachedLLM(LanguageModel):
    """LRU-cached view of an inner language model.

    Cache hits are counted and do **not** add to the inner model's usage, but
    they do add to this wrapper's usage tracker so experiments can report both
    "tokens billed" (inner) and "tokens requested" (wrapper).
    """

    def __init__(
        self,
        inner: LanguageModel,
        max_entries: int = 10_000,
        persistent: CacheBackend | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        super().__init__(tokenizer=inner.tokenizer)
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.inner = inner
        self.max_entries = max_entries
        self.persistent = persistent
        self.name = f"cached({inner.name})"
        #: The shared owner map of a cluster's in-process workers (set by
        #: ``PromptOwners.register``); ``None``: this cache owns every prompt.
        self.owners: Any = None
        metrics = metrics or get_default_registry()
        # Metric handles resolved once: lookups are the hottest path in the
        # stack, so they must not take the registry lock per observation.
        self._m_hits = metrics.counter("cache.hits")
        self._m_misses = metrics.counter("cache.misses")
        self._m_persistent_hits = metrics.counter("cache.persistent_hits")
        self._m_bytes_served = metrics.counter("cache.bytes_served")
        self._m_bytes_stored = metrics.counter("cache.bytes_stored")
        # Prompts actually forwarded to the inner backend (cache hits never
        # count): the exactly-once signal elasticity tests assert on.
        self._m_backend_calls = metrics.counter("llm.calls")
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0
        self._cache: OrderedDict[str, Entry] = OrderedDict()
        #: prompt -> its claim: who computes it (see the module doc).
        self._claims: dict[str, Claim] = {}
        # ``_fetch_lock`` makes the whole lookup-or-compute one critical
        # section: concurrent callers never compute the same prompt twice.
        # It is held across the inner-model call, so traffic that computes is
        # serialized — exact-once semantics traded against backend
        # parallelism, which the offline simulated backend cannot use anyway.
        # ``_lock`` guards the LRU, the counters, the usage tracker and the
        # claims, and is never held across the inner call or a persistent
        # ``put``.  Order: this cache's ``_fetch_lock`` -> one cache's
        # ``_lock`` (this one's or the owner's, never both) -> the persistent
        # store's own; nothing takes them the other way round.
        self._fetch_lock = threading.Lock()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ owner
    def _owner(self, prompt: str) -> "CachedLLM":
        owners = self.owners
        if owners is None:
            return self
        return owners.owner_of(prompt) or self

    def _find(self, prompt: str) -> tuple[Entry | None, bool]:
        """The owner's entry for ``prompt`` and whether the persistent store
        answered it (memory first); counts nothing."""
        owner = self._owner(prompt)
        with owner._lock:
            entry = owner._cache.get(prompt)
            if entry is not None:
                owner._cache.move_to_end(prompt)
                return entry, False
            stored = owner.persistent.get(prompt) if owner.persistent is not None else None
            if stored is None:
                return None, False
            return owner._remember(prompt, stored), True

    def _remember(self, prompt: str, entry: Entry) -> Entry:
        """Put ``entry`` in this cache's LRU; needs ``_lock``."""
        self._cache[prompt] = entry
        self._cache.move_to_end(prompt)
        if len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
        return entry

    def _store(self, prompt: str, completion: Completion) -> Entry:
        """Persist, then remember, the inner model's ``completion`` at the
        owner; needs ``_fetch_lock``.

        The ``put`` (a file append) is made outside the owner's state lock,
        which other workers' engines take to look up; a reader that slips in
        before ``_remember`` finds the entry in the persistent store — a
        persistent hit — or nothing, never a half-state.
        """
        entry = (completion.text, completion.prompt_tokens, completion.completion_tokens)
        owner = self._owner(prompt)
        if owner.persistent is not None:
            owner.persistent.put(prompt, entry)
        with owner._lock:
            owner._remember(prompt, entry)
        self._m_bytes_stored.inc(len(entry[0]))
        return entry

    # ----------------------------------------------------------- the asker's
    def _count(self, entry: Entry | None, persistent: bool = False) -> None:
        """Count one lookup of this asker, a hit or (``None``) a miss; needs ``_lock``."""
        if entry is None:
            self.misses += 1
            self._m_misses.inc()
            return
        self.hits += 1
        self._m_hits.inc()
        self._m_bytes_served.inc(len(entry[0]))
        if persistent:
            self.persistent_hits += 1
            self._m_persistent_hits.inc()

    def _record(self, prompt: str, entry: Entry, kind: str) -> Completion:
        """``LanguageModel._record`` on the entry's counts; needs ``_lock``."""
        completion = Completion(prompt, entry[0], entry[1], entry[2], self.name)
        self.usage.record(completion, kind=kind)
        return completion

    def cached(self, prompt: str, kind: str = "other") -> Completion | None:
        """The completion of ``prompt`` if it is stored, else ``None``.

        A hit is counted and recorded exactly as ``complete`` would (under
        the prompt's own ``kind``); a miss counts nothing — the caller is
        expected to ask again through ``complete``/``complete_batch``.  Takes
        state locks only: it returns while a computation is in flight.
        """
        entry, persistent = self._find(prompt)
        if entry is None:
            return None
        with self._lock:
            self._count(entry, persistent)
            return self._record(prompt, entry, kind)

    # ----------------------------------------------------------------- claims
    def claim(self, prompt: str, holder: object) -> Claim:
        """Claim a missed ``prompt`` at its owner for ``holder`` (a batcher).

        A claim whose ``holder`` is the caller's — new, or one it already
        held — is the caller's to carry through ``complete_batch`` (whose
        lookup serves an entry that landed meanwhile) and to
        :meth:`release`.  Any other has a ``future``: wait for it, then ask
        :meth:`cached` again.
        """
        owner = self if self.owners is None else self._owner(prompt)
        with owner._lock:
            claim = owner._claims.get(prompt)
            if claim is None:
                claim = owner._claims[prompt] = Claim(owner, holder)
            elif claim.holder is not holder and claim.future is None:
                claim.future = Future()
            return claim

    def release(self, prompt: str, claim: Claim, error: BaseException | None = None) -> None:
        """Settle ``claim`` once: its waiters ask again, or get ``error``."""
        owner = claim.owner
        with owner._lock:
            if owner._claims.get(prompt) is not claim:
                return  # settled already
            del owner._claims[prompt]
        if claim.future is not None:
            if error is None:
                claim.future.set_result(None)
            else:
                claim.future.set_exception(error)

    # --------------------------------------------------------------- interface
    def _fetch(self, prompt: str, kind: str) -> Entry:
        """Lookup-or-compute for one prompt; needs ``_fetch_lock``."""
        entry, persistent = self._find(prompt)
        with self._lock:
            self._count(entry, persistent)
        if entry is None:
            self._m_backend_calls.inc()
            entry = self._store(prompt, self.inner.complete(prompt, kind=kind))
        return entry

    def _complete_text(self, prompt: str) -> str:
        # Retained for the LanguageModel contract; ``kind`` is unavailable at
        # this layer so the overridden complete()/complete_batch() are the
        # real entry points.
        with self._fetch_lock:
            return self._fetch(prompt, "other")[0]

    def complete(self, prompt: str, kind: str = "other") -> Completion:
        with self._fetch_lock:
            entry = self._fetch(prompt, kind)
            with self._lock:
                return self._record(prompt, entry, kind)

    def complete_batch(
        self, prompts: Sequence[str], kind: str = "other"
    ) -> list[Completion]:
        """Serve a micro-batch, forwarding only first-seen misses to the inner model.

        Mirrors the sequential semantics exactly: a prompt repeated within one
        batch is a miss on first occurrence and a hit afterwards, so usage
        accounting is identical whether the prompts arrive one by one or
        coalesced.
        """
        with self._fetch_lock:
            entries: list[Entry | None] = []
            found: list[tuple[Entry | None, bool]] = []
            miss_order: list[str] = []
            pending: set[str] = set()
            with span("cache.lookup", prompts=len(prompts)) as lookup_span:
                for prompt in prompts:
                    if prompt in pending:
                        # Served by the in-flight miss ahead of it in this
                        # batch — sequentially this occurrence would have
                        # been a hit; counted once the text it serves is here.
                        entries.append(None)
                        continue
                    entry, persistent = self._find(prompt)
                    entries.append(entry)
                    found.append((entry, persistent))
                    if entry is None:
                        pending.add(prompt)
                        miss_order.append(prompt)
                with self._lock:
                    for entry, persistent in found:
                        self._count(entry, persistent)
                if lookup_span is not None:
                    lookup_span.attrs["misses"] = len(miss_order)
            # Misses resolve from what this batch stored, not from the LRU:
            # storing a large batch can already have evicted its own
            # earliest entries.
            fetched: dict[str, Entry] = {}
            if miss_order:
                self._m_backend_calls.inc(len(miss_order))
                with span("llm.backend", kind=kind, prompts=len(miss_order)):
                    completions = self.inner.complete_batch(miss_order, kind=kind)
                # Checked before anything is stored: paired by position, a
                # short reply would be stored under the wrong prompts.
                if len(completions) != len(miss_order):
                    raise RuntimeError(
                        f"backend returned {len(completions)} completions "
                        f"for {len(miss_order)} prompts"
                    )
                for prompt, completion in zip(miss_order, completions):
                    fetched[prompt] = self._store(prompt, completion)
            with self._lock:
                served = []
                for prompt, entry in zip(prompts, entries):
                    if entry is None:
                        entry = fetched[prompt]
                        if prompt in pending:
                            pending.discard(prompt)  # the miss, counted at lookup
                        else:
                            self._count(entry)
                    served.append(self._record(prompt, entry, kind))
                return served

    # --------------------------------------------------------------- statistics
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop the in-memory cache and counters (the persistent store survives)."""
        with self._fetch_lock, self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0
            self.persistent_hits = 0
