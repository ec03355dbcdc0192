"""A caching wrapper around any language model.

Production pipelines over data lakes re-issue many identical prompts (e.g. the
same metadata-retrieval prompt for every record of a column); caching them cuts
cost and makes reruns deterministic.  The wrapper preserves the
:class:`~repro.llm.base.LanguageModel` interface, so it can be dropped in front
of the simulated model or a real API client alike.

**The key.**  Every cache structure — the LRU, the claim table, an owner
map's placement and the persistent store — is keyed by one 32-byte
:func:`prompt_key`: the SHA-256 of the inner model's
:attr:`~repro.llm.base.LanguageModel.identity` and the prompt.  A second
model, or a simulated one with another seed, on the same store misses
instead of being served the first one's completions, and an entry costs 32
bytes of key, not the prompt's text (1.1 KB for a typical UniDM prompt).
A prompt is hashed once, where it meets the cache: :meth:`CachedLLM.complete`
keys it itself; the serving engine's micro-batcher keys it
(:meth:`CachedLLM.key`) before it asks :meth:`CachedLLM.cached`, claims a
miss by that key, and hands the batch's keys to ``complete_batch`` as a
:class:`KeyedBatch` — the lookup, the store and the persistent append of a
miss all take the key its claim carries.

**Persisting.**  A miss is remembered in the LRU and *staged* in the
persistent store (``put``); :meth:`CachedLLM.persist` lands what this cache
staged, one append a store (:meth:`~repro.serving.cache.PersistentCache.flush`).
``complete`` and ``complete_batch`` persist before they return — except for
a :class:`KeyedBatch`, whose caller persists: the micro-batcher asks once it
has posted the batch's landing, so the append runs while the loop thread
delivers the batch instead of between the backend's reply and the delivery.
Closing the engine waits for that append, and a
:class:`~repro.serving.cache.PersistentCache` flushes what is still staged
when the process exits, so a process that answered a prompt and exited
without closing its engine still leaves the entry on disk.

The wrapper is thread-safe under two locks.  The *fetch* lock is held across
a whole lookup-or-compute (lookup, inner-model call, store), so two callers
never compute one prompt twice; a persist's append is made after it is
released.  The short *state* lock guards the LRU, the counters, the usage
tracker and the claim table, and is never held across the inner call.
:meth:`CachedLLM.cached` — the serving engine's micro-batcher asks it from
its event loop before it queues a prompt — takes state locks only, so a hit
is answered while another thread's round trip is still in flight.  An
optional *persistent* backend (see
:class:`~repro.serving.cache.PersistentCache`) spills entries to disk so
that a warmed cache survives across processes; any object with
``get(key) -> Entry | None`` and ``put(key, entry)`` works (and a
``flush()``, if it offers one, is what :meth:`CachedLLM.persist` calls).

An entry is ``(text, prompt_tokens, completion_tokens)``: the text and the
counts of the :class:`~repro.llm.base.Completion` the inner model returned
for the miss, kept with the entry in the LRU and the persistent store and
evicted with it.  The cache tokenizes nothing: what a hit reports is what
the backend billed.

**Owners.**  The in-process workers of a cluster share one owner map
(:class:`~repro.cluster.hashing.PromptOwners`, set as ``owners``; without
one a cache owns every prompt): a prompt's entry, in the LRU and the
persistent store, lives in the cache of the worker the ring places its key
on, and every lookup and store goes there.  The asker counts the hit or
miss and records the usage, and a miss is computed by the asker's backend,
so ``llm.calls`` counts where the round trip went.

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

import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from ..obs.metrics import MetricsRegistry, get_default_registry
from ..obs.span import span
from .base import Completion, LanguageModel

#: ``(text, prompt_tokens, completion_tokens)``: one stored completion.
Entry = tuple[str, int, int]

#: Bytes of a :func:`prompt_key`.
KEY_BYTES = 32


def prompt_key(model: str, prompt: str) -> bytes:
    """The cache key of ``prompt`` asked of the model whose identity is
    ``model``: the 32-byte SHA-256 digest of both (the identity
    length-prefixed, so no two pairs share their bytes)."""
    return hashlib.sha256(f"{len(model)}:{model}{prompt}".encode("utf-8")).digest()


class KeyedBatch(list):
    """Prompts with their keys (``keys[i]`` is ``self[i]``'s): a batch whose
    caller has keyed it already, handed to :meth:`CachedLLM.complete_batch`
    as its ``prompts`` so that no prompt of it is hashed again.  Its caller
    also calls :meth:`CachedLLM.persist` once it has delivered the batch."""

    __slots__ = ("keys",)

    def __init__(self, prompts: Iterable[str], keys: list[bytes]):
        super().__init__(prompts)
        self.keys = keys


@dataclass(eq=False)
class Claim:
    """One claimed miss: its key, the cache it is claimed at, the batcher
    computing it, and the future its waiters share (made when the first one
    waits)."""

    key: bytes
    owner: "CachedLLM"
    holder: object
    future: "Future[None] | None" = None


@runtime_checkable
class CacheBackend(Protocol):
    """Duck type of a persistent completion store: entries by key."""

    def get(self, key: bytes) -> Entry | None: ...

    def put(self, key: bytes, entry: Entry) -> None: ...


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
        self._identity = inner.identity
        #: The shared owner map of a cluster's in-process workers (set by
        #: ``PromptOwners.register``); ``None``: this cache owns every prompt.
        self.owners: Any = None
        metrics = metrics or get_default_registry()
        # Metric handles resolved once: lookups are the hottest path in the
        # stack, so they must not take the registry lock per observation.
        self._m_hits = metrics.counter("cache.hits")
        self._m_misses = metrics.counter("cache.misses")
        self._m_persistent_hits = metrics.counter("cache.persistent_hits")
        # Prompts actually forwarded to the inner backend (cache hits never
        # count): the exactly-once signal elasticity tests assert on.
        self._m_backend_calls = metrics.counter("llm.calls")
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0
        self._cache: OrderedDict[bytes, Entry] = OrderedDict()
        #: key -> its claim: who computes it (see the module doc).
        self._claims: dict[bytes, Claim] = {}
        # ``_fetch_lock`` makes the whole lookup-or-compute one critical
        # section: concurrent callers never compute the same prompt twice.
        # It is held across the inner-model call, so traffic that computes is
        # serialized — exact-once semantics traded against backend
        # parallelism, which the offline simulated backend cannot use anyway.
        # ``_lock`` guards the LRU, the counters, the usage tracker, the
        # claims and ``_staged_in``, and is never held across the inner call.
        # A ``put`` only stages; the append is :meth:`persist`'s, made under
        # neither lock.  Order: this cache's ``_fetch_lock`` -> one cache's
        # ``_lock`` (this one's or the owner's, never both) -> the persistent
        # store's own; nothing takes them the other way round.
        self._fetch_lock = threading.Lock()
        self._lock = threading.Lock()
        #: The persistent stores this cache staged entries in since its last
        #: :meth:`persist` (the owners' stores, in a cluster).
        self._staged_in: set[CacheBackend] = set()

    @property
    def identity(self) -> str:
        """The inner model's: a cached view answers what its model answers."""
        return self._identity

    def key(self, prompt: str) -> bytes:
        """The key of ``prompt`` here: what its lookup, claim and store take."""
        return prompt_key(self._identity, prompt)

    # ------------------------------------------------------------------ owner
    def _owner(self, key: bytes) -> "CachedLLM":
        owners = self.owners
        if owners is None:
            return self
        return owners.owner_of(key) or self

    def _find(self, key: bytes) -> tuple[Entry | None, bool]:
        """The owner's entry under ``key`` and whether the persistent store
        answered it (memory first); counts nothing."""
        owner = self._owner(key)
        with owner._lock:
            entry = owner._cache.get(key)
            if entry is not None:
                owner._cache.move_to_end(key)
                return entry, False
            stored = owner.persistent.get(key) if owner.persistent is not None else None
            if stored is None:
                return None, False
            return owner._remember(key, stored), True

    def _remember(self, key: bytes, entry: Entry) -> Entry:
        """Put ``entry`` in this cache's LRU; needs ``_lock``."""
        self._cache[key] = entry
        self._cache.move_to_end(key)
        if len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
        return entry

    def _store(self, key: bytes, completion: Completion) -> Entry:
        """Remember the inner model's ``completion`` at the owner, then stage
        it in the owner's persistent store for :meth:`persist`; needs
        ``_fetch_lock``.

        A reader finds the entry in the LRU from the moment it is
        remembered; the persistent store serves it once it is on disk.
        """
        entry = (completion.text, completion.prompt_tokens, completion.completion_tokens)
        owner = self._owner(key)
        with owner._lock:
            owner._remember(key, entry)
        store = owner.persistent
        if store is not None:
            store.put(key, entry)
            with self._lock:
                self._staged_in.add(store)
        return entry

    def persist(self) -> None:
        """Land every entry this cache staged since its last persist: one
        append a store.

        Takes no fetch lock, so the next lookup-or-compute need not wait for
        the disk.  A failed append raises here and leaves its entries staged,
        and the next persist tries its stores again.  A store without a
        ``flush`` wrote each entry at its ``put``.
        """
        with self._lock:
            stores, self._staged_in = self._staged_in, set()
        try:
            for store in stores:
                flush = getattr(store, "flush", None)
                if flush is not None:
                    flush()
        except BaseException:
            with self._lock:
                self._staged_in |= stores
            raise

    # ----------------------------------------------------------- the asker's
    def _count(self, entry: Entry | None, persistent: bool = False) -> None:
        """Count one lookup of this asker, a hit or (``None``) a miss; needs ``_lock``."""
        if entry is None:
            self.misses += 1
            self._m_misses.inc()
            return
        self.hits += 1
        self._m_hits.inc()
        if persistent:
            self.persistent_hits += 1
            self._m_persistent_hits.inc()

    def _record(self, prompt: str, entry: Entry, kind: str) -> Completion:
        """``LanguageModel._record`` on the entry's counts; needs ``_lock``."""
        completion = Completion(prompt, entry[0], entry[1], entry[2], self.name)
        self.usage.record(completion, kind=kind)
        return completion

    def cached(
        self, prompt: str, kind: str = "other", key: bytes | None = None
    ) -> Completion | None:
        """The completion of ``prompt`` (under ``key``, its :meth:`key` when
        the caller has it) if it is stored, else ``None``.

        A hit is counted and recorded exactly as ``complete`` would (under
        the prompt's own ``kind``); a miss counts nothing — the caller is
        expected to ask again through ``complete``/``complete_batch``.  Takes
        state locks only: it returns while a computation is in flight.
        """
        entry, persistent = self._find(self.key(prompt) if key is None else key)
        if entry is None:
            return None
        with self._lock:
            self._count(entry, persistent)
            return self._record(prompt, entry, kind)

    # ----------------------------------------------------------------- claims
    def claim(self, key: bytes, holder: object) -> Claim:
        """Claim the missed prompt under ``key`` at its owner for ``holder``
        (a batcher).

        A claim whose ``holder`` is the caller's — new, or one it already
        held — is the caller's to carry through ``complete_batch`` (whose
        lookup serves an entry that landed meanwhile) and to
        :meth:`release`.  Any other has a ``future``: wait for it, then ask
        :meth:`cached` again.
        """
        owner = self if self.owners is None else self._owner(key)
        with owner._lock:
            claim = owner._claims.get(key)
            if claim is None:
                claim = owner._claims[key] = Claim(key, owner, holder)
            elif claim.holder is not holder and claim.future is None:
                claim.future = Future()
            return claim

    def release(self, claim: Claim, error: BaseException | None = None) -> None:
        """Settle ``claim`` once: its waiters ask again, or get ``error``."""
        owner = claim.owner
        with owner._lock:
            if owner._claims.get(claim.key) is not claim:
                return  # settled already
            del owner._claims[claim.key]
        if claim.future is not None:
            if error is None:
                claim.future.set_result(None)
            else:
                claim.future.set_exception(error)

    # --------------------------------------------------------------- interface
    def _fetch(self, prompt: str, kind: str) -> Entry:
        """Lookup-or-compute for one prompt; needs ``_fetch_lock``."""
        key = self.key(prompt)
        entry, persistent = self._find(key)
        with self._lock:
            self._count(entry, persistent)
        if entry is None:
            self._m_backend_calls.inc()
            entry = self._store(key, self.inner.complete(prompt, kind=kind))
        return entry

    def _complete_text(self, prompt: str) -> str:
        # Retained for the LanguageModel contract; ``kind`` is unavailable at
        # this layer so the overridden complete()/complete_batch() are the
        # real entry points.
        with self._fetch_lock:
            text = self._fetch(prompt, "other")[0]
        if self._staged_in:
            self.persist()
        return text

    def complete(self, prompt: str, kind: str = "other") -> Completion:
        with self._fetch_lock:
            entry = self._fetch(prompt, kind)
            with self._lock:
                completion = self._record(prompt, entry, kind)
        if self._staged_in:
            self.persist()
        return completion

    def complete_batch(
        self, prompts: Sequence[str], kind: str = "other"
    ) -> list[Completion]:
        """Serve a micro-batch, forwarding only first-seen misses to the inner model.

        Mirrors the sequential semantics exactly: a prompt repeated within one
        batch is a miss on first occurrence and a hit afterwards, so usage
        accounting is identical whether the prompts arrive one by one or
        coalesced.  A :class:`KeyedBatch` brings its prompts' keys, and its
        caller persists the misses; any other sequence is keyed here, and
        its misses are persisted before this returns.
        """
        keyed = isinstance(prompts, KeyedBatch)
        keys = prompts.keys if keyed else [self.key(p) for p in prompts]
        with self._fetch_lock:
            entries: list[Entry | None] = []
            found: list[tuple[Entry | None, bool]] = []
            miss_prompts: list[str] = []
            miss_keys: list[bytes] = []
            pending: set[bytes] = set()
            with span("cache.lookup", prompts=len(prompts)) as lookup_span:
                for prompt, key in zip(prompts, keys):
                    if key in pending:
                        # Served by the in-flight miss ahead of it in this
                        # batch — sequentially this occurrence would have
                        # been a hit; counted once the text it serves is here.
                        entries.append(None)
                        continue
                    entry, persistent = self._find(key)
                    entries.append(entry)
                    found.append((entry, persistent))
                    if entry is None:
                        pending.add(key)
                        miss_prompts.append(prompt)
                        miss_keys.append(key)
                with self._lock:
                    for entry, persistent in found:
                        self._count(entry, persistent)
                if lookup_span is not None:
                    lookup_span.attrs["misses"] = len(miss_keys)
            # Misses resolve from what this batch stored, not from the LRU:
            # storing a large batch can already have evicted its own
            # earliest entries.
            fetched: dict[bytes, Entry] = {}
            if miss_prompts:
                self._m_backend_calls.inc(len(miss_prompts))
                with span("llm.backend", kind=kind, prompts=len(miss_prompts)):
                    completions = self.inner.complete_batch(miss_prompts, kind=kind)
                # Checked before anything is stored: paired by position, a
                # short reply would be stored under the wrong prompts.
                if len(completions) != len(miss_prompts):
                    raise RuntimeError(
                        f"backend returned {len(completions)} completions "
                        f"for {len(miss_prompts)} prompts"
                    )
                for key, completion in zip(miss_keys, completions):
                    fetched[key] = self._store(key, completion)
            with self._lock:
                served = []
                for prompt, key, entry in zip(prompts, keys, entries):
                    if entry is None:
                        entry = fetched[key]
                        if key in pending:
                            pending.discard(key)  # the miss, counted at lookup
                        else:
                            self._count(entry)
                    served.append(self._record(prompt, entry, kind))
        if self._staged_in and not keyed:
            self.persist()
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
