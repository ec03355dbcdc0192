"""A caching wrapper around any language model.

Production pipelines over data lakes re-issue many identical prompts (e.g. the
same metadata-retrieval prompt for every record of a column); caching them cuts
cost and makes reruns deterministic.  The wrapper preserves the
:class:`~repro.llm.base.LanguageModel` interface, so it can be dropped in front
of the simulated model or a real API client alike.

The wrapper is thread-safe under two locks.  The *fetch* lock is held across
a whole lookup-or-compute (lookup, inner-model call, store), so two callers
never compute one prompt twice; the short *state* lock guards the LRU, the
counters and the usage tracker, and is never held across the inner call.
:meth:`CachedLLM.cached` — the serving engine's micro-batcher asks it from
its event loop before it queues a prompt — takes the state lock only, so a
hit is answered while another thread's round trip is still in flight.  An
optional *persistent* backend (see
:class:`~repro.serving.cache.PersistentCache`) spills completions to disk so
that a warmed cache survives across processes; any object with
``get(prompt) -> str | None`` and ``put(prompt, text)`` works.

An LRU entry carries its token counts — ``(text, prompt_tokens,
completion_tokens)``, counted when the entry is made (a miss stored, a
persistent hit promoted) and evicted with it — so a hit tokenizes nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Protocol, Sequence, runtime_checkable

from ..obs.metrics import MetricsRegistry, get_default_registry
from ..obs.span import span
from .base import Completion, LanguageModel


@runtime_checkable
class CacheBackend(Protocol):
    """Duck type of a persistent completion store."""

    def get(self, prompt: str) -> str | None: ...

    def put(self, prompt: str, text: str) -> None: ...


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
        self._cache: OrderedDict[str, tuple[str, int, int]] = OrderedDict()
        # ``_fetch_lock`` makes the whole lookup-or-compute one critical
        # section: concurrent callers never compute the same prompt twice.
        # It is held across the inner-model call, so traffic that computes is
        # serialized — exact-once semantics traded against backend
        # parallelism, which the offline simulated backend cannot use anyway.
        # ``_lock`` guards the LRU, the counters and the usage tracker, and is
        # never held across the inner call or a persistent ``put``: ``cached``
        # takes it alone.  Order: ``_fetch_lock`` -> ``_lock`` -> the
        # persistent store's own; nothing takes them the other way round.
        self._fetch_lock = threading.Lock()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ lookup
    def _note_hit(self, text: str, persistent: bool = False) -> None:
        self.hits += 1
        self._m_hits.inc()
        self._m_bytes_served.inc(len(text))
        if persistent:
            self.persistent_hits += 1
            self._m_persistent_hits.inc()

    def _find(self, prompt: str) -> str | None:
        """Memory then persistent lookup, counting a hit; needs ``_lock``.

        A miss is not counted here: ``cached`` leaves that to the batch that
        will carry the prompt, so every prompt is counted exactly once.
        """
        entry = self._cache.get(prompt)
        if entry is not None:
            self._cache.move_to_end(prompt)
            self._note_hit(entry[0])
            return entry[0]
        if self.persistent is not None:
            stored = self.persistent.get(prompt)
            if stored is not None:
                self._note_hit(stored, persistent=True)
                self._remember(prompt, stored)
                return stored
        return None

    def _lookup(self, prompt: str) -> str | None:
        """``_find``, counting what it does not find as a miss; needs ``_lock``."""
        text = self._find(prompt)
        if text is None:
            self.misses += 1
            self._m_misses.inc()
        return text

    def _remember(self, prompt: str, text: str) -> None:
        entry = self._cache.get(prompt)
        if entry is None or entry[0] != text:
            self._cache[prompt] = (text, self.tokenizer.count(prompt), self.tokenizer.count(text))
        self._cache.move_to_end(prompt)
        if len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)

    def _record(self, prompt: str, text: str, kind: str) -> Completion:
        """``LanguageModel._record`` on the entry's counts; needs ``_lock``."""
        entry = self._cache.get(prompt)
        if entry is None or entry[0] != text:  # evicted by the rest of its own batch
            return super()._record(prompt, text, kind)
        completion = Completion(prompt, text, entry[1], entry[2], self.name)
        self.usage.record(completion, kind=kind)
        return completion

    def _store(self, prompt: str, text: str) -> None:
        """Persist, then remember; needs ``_fetch_lock`` and not ``_lock``.

        The ``put`` (a file append) runs outside the state lock; a reader
        that slips in before ``_remember`` finds the entry in the persistent
        store — a persistent hit — never a half-state.
        """
        if self.persistent is not None:
            self.persistent.put(prompt, text)
        with self._lock:
            self._remember(prompt, text)
            self._m_bytes_stored.inc(len(text))

    def cached(self, prompt: str, kind: str = "other") -> Completion | None:
        """The completion of ``prompt`` if it is stored, else ``None``.

        A hit is counted and recorded exactly as ``complete`` would (under
        the prompt's own ``kind``); a miss counts nothing — the caller is
        expected to ask again through ``complete``/``complete_batch``.  Takes
        the state lock only: it returns while a computation is in flight.
        """
        with self._lock:
            text = self._find(prompt)
            return None if text is None else self._record(prompt, text, kind)

    def note_route(self, prompt: str, route: str) -> None:
        """Attribute ``prompt`` to a spec (route) key for shard migration.

        Forwards to the persistent backend's route index when it keeps one
        (see :meth:`repro.serving.cache.PersistentCache.note_route`);
        silently a no-op otherwise, so callers need not care which backend
        is wired in.
        """
        note = getattr(self.persistent, "note_route", None)
        if note is not None:
            note(prompt, route)

    # --------------------------------------------------------------- interface
    def _fetch(self, prompt: str, kind: str) -> str:
        """Lookup-or-compute for one prompt; needs ``_fetch_lock``."""
        with self._lock:
            text = self._lookup(prompt)
        if text is None:
            self._m_backend_calls.inc()
            text = self.inner.complete(prompt, kind=kind).text
            self._store(prompt, text)
        return text

    def _complete_text(self, prompt: str) -> str:
        # Retained for the LanguageModel contract; ``kind`` is unavailable at
        # this layer so the overridden complete()/complete_batch() are the
        # real entry points.
        with self._fetch_lock:
            return self._fetch(prompt, "other")

    def complete(self, prompt: str, kind: str = "other") -> Completion:
        with self._fetch_lock:
            text = self._fetch(prompt, kind)
            with self._lock:
                return self._record(prompt, text, kind)

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
            texts: list[str | None] = []
            miss_order: list[str] = []
            pending: set[str] = set()
            with span("cache.lookup", prompts=len(prompts)) as lookup_span, self._lock:
                for prompt in prompts:
                    if prompt in pending:
                        # Served by the in-flight miss ahead of it in this
                        # batch — sequentially this occurrence would have
                        # been a hit; counted once the text it serves is here.
                        texts.append(None)
                        continue
                    text = self._lookup(prompt)
                    texts.append(text)
                    if text is None:
                        pending.add(prompt)
                        miss_order.append(prompt)
                if lookup_span is not None:
                    lookup_span.attrs["misses"] = len(miss_order)
            fetched_texts: dict[str, str] = {}
            if miss_order:
                self._m_backend_calls.inc(len(miss_order))
                with span("llm.backend", kind=kind, prompts=len(miss_order)):
                    fetched = self.inner.complete_batch(miss_order, kind=kind)
                # Checked before anything is stored: paired by position, a
                # short reply would be stored under the wrong prompts.
                if len(fetched) != len(miss_order):
                    raise RuntimeError(
                        f"backend returned {len(fetched)} completions "
                        f"for {len(miss_order)} prompts"
                    )
                for prompt, completion in zip(miss_order, fetched):
                    fetched_texts[prompt] = completion.text
                    self._store(prompt, completion.text)
            # Resolve misses from the fetched results, not the LRU: storing a
            # large batch can already have evicted its own earliest entries.
            with self._lock:
                completions = []
                for prompt, text in zip(prompts, texts):
                    if text is None:
                        text = fetched_texts[prompt]
                        if prompt in pending:
                            pending.discard(prompt)  # the miss, counted at lookup
                        else:
                            self._note_hit(text)
                    completions.append(self._record(prompt, text, kind))
                return completions

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
