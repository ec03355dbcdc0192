"""Unit tests for the caching LLM wrapper."""

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from repro.llm import CachedLLM, Completion, EchoLLM, SimpleTokenizer, SimulatedLLM, prompt_key
from repro.obs.metrics import MetricsRegistry
from repro.serving import PersistentCache


def test_cache_hits_do_not_invoke_inner_model():
    inner = EchoLLM(reply="pong")
    cached = CachedLLM(inner)
    cached.complete("same prompt")
    cached.complete("same prompt")
    assert inner.usage.calls == 1
    assert cached.usage.calls == 2
    assert cached.hits == 1
    assert cached.misses == 1
    assert cached.hit_rate == pytest.approx(0.5)


def test_cache_eviction_respects_max_entries():
    inner = EchoLLM(reply="x")
    cached = CachedLLM(inner, max_entries=2)
    cached.complete("a")
    cached.complete("b")
    cached.complete("c")  # evicts "a"
    cached.complete("a")  # miss again
    assert inner.usage.calls == 4


def test_cache_clear():
    cached = CachedLLM(EchoLLM(reply="x"))
    cached.complete("a")
    cached.clear()
    assert cached.hits == 0 and cached.misses == 0
    cached.complete("a")
    assert cached.misses == 1


def test_cache_validates_max_entries():
    with pytest.raises(ValueError):
        CachedLLM(EchoLLM(), max_entries=0)


def test_cache_name_mentions_inner_model():
    cached = CachedLLM(EchoLLM())
    assert "echo" in cached.name


def test_eviction_is_lru_not_fifo():
    inner = EchoLLM(reply="x")
    cached = CachedLLM(inner, max_entries=2)
    cached.complete("a")
    cached.complete("b")
    cached.complete("a")  # refresh "a": "b" is now least recently used
    cached.complete("c")  # evicts "b"
    cached.complete("a")  # still cached
    assert cached.hits == 2
    cached.complete("b")  # evicted: must hit the inner model again
    assert inner.usage.calls == 4  # a, b, c, b


def test_hit_rate_over_mixed_traffic():
    cached = CachedLLM(EchoLLM(reply="x"))
    assert cached.hit_rate == 0.0
    for prompt in ["a", "b", "a", "a", "b", "c"]:
        cached.complete(prompt)
    assert cached.hits == 3 and cached.misses == 3
    assert cached.hit_rate == pytest.approx(0.5)


class KindEcho(EchoLLM):
    """An echo backend that records the ``(prompt, kind)`` of every call."""

    def __init__(self, reply: str = "x"):
        super().__init__(reply=reply)
        self.kinds: list[tuple[str, str]] = []

    def complete(self, prompt, kind="other"):
        self.kinds.append((prompt, kind))
        return super().complete(prompt, kind=kind)


def test_kind_is_forwarded_to_inner_model():
    inner = KindEcho()
    cached = CachedLLM(inner)
    cached.complete("p", kind="p_rm")
    cached.complete("p", kind="p_rm")  # hit: inner untouched
    cached.complete("q", kind="answer")
    assert inner.kinds == [("p", "p_rm"), ("q", "answer")]
    # The wrapper records the hit too: tokens requested above tokens billed.
    assert cached.usage.calls == 3 and inner.usage.calls == 2
    assert cached.usage.total_tokens > inner.usage.total_tokens


def test_complete_batch_deduplicates_within_batch():
    inner = KindEcho()
    cached = CachedLLM(inner)
    completions = cached.complete_batch(["a", "b", "a", "a"], kind="p_dp")
    assert [c.prompt for c in completions] == ["a", "b", "a", "a"]
    assert inner.usage.calls == 2  # "a" computed once, "b" once
    # Sequential semantics: first occurrences miss, repeats hit.
    assert cached.misses == 2 and cached.hits == 2
    assert cached.usage.calls == 4
    assert inner.kinds == [("a", "p_dp"), ("b", "p_dp")]


def test_complete_batch_larger_than_cache_capacity():
    # A batch whose misses overflow the LRU must still resolve every slot
    # (regression: early entries were read back from the cache after their
    # own batch had evicted them).
    inner = EchoLLM(reply="x")
    cached = CachedLLM(inner, max_entries=2)
    completions = cached.complete_batch(["a", "b", "c", "a"], kind="p_dp")
    assert [c.prompt for c in completions] == ["a", "b", "c", "a"]
    assert all(c.text == "x" for c in completions)
    assert inner.usage.calls == 3  # a, b, c computed once each


def test_complete_batch_mixes_cached_and_fresh_prompts():
    inner = EchoLLM(reply="x")
    cached = CachedLLM(inner)
    cached.complete("a")
    completions = cached.complete_batch(["a", "b"], kind="answer")
    assert len(completions) == 2
    assert inner.usage.calls == 2
    assert cached.hits == 1 and cached.misses == 2


def test_thread_safety_under_concurrent_completions():
    inner = EchoLLM(reply="x")
    cached = CachedLLM(inner)
    prompts = [f"p{i % 10}" for i in range(200)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(cached.complete, prompts))
    # The critical section spans lookup + compute, so each unique prompt hits
    # the inner model exactly once and the counters stay consistent.
    assert inner.usage.calls == 10
    assert cached.misses == 10
    assert cached.hits == 190
    assert cached.usage.calls == 200


def test_cached_serves_a_hit_and_counts_nothing_for_a_miss(tmp_path):
    inner = EchoLLM(reply="pong")
    first = CachedLLM(inner, persistent=PersistentCache(tmp_path / "cache"))
    assert first.cached("a", "p_rm") is None
    # The miss is counted when the prompt is asked for real, not here.
    assert (first.hits, first.misses, first.usage.calls) == (0, 0, 0)
    first.complete("a", kind="p_rm")
    hit = first.cached("a", "answer")
    assert (hit.prompt, hit.text, hit.model) == ("a", "pong", first.name)
    assert (first.hits, first.misses, first.persistent_hits) == (1, 1, 0)
    # Recorded like any hit: wrapper usage, with the counts the backend billed.
    assert first.usage.calls == 2 and inner.usage.calls == 1
    assert first.usage.total_tokens == 2 * inner.usage.total_tokens

    # A fresh wrapper finds it in the persistent store and promotes it.
    second = CachedLLM(EchoLLM(), persistent=PersistentCache(tmp_path / "cache"))
    assert second.cached("a").text == "pong" and second.cached("a").text == "pong"
    assert (second.hits, second.persistent_hits, second.misses) == (2, 1, 0)


def test_a_reader_does_not_wait_for_the_fetch_in_flight_but_a_fetcher_does(gated_llm):
    inner = gated_llm()
    llm = CachedLLM(inner)
    warm = llm.complete("H", kind="p_rm")  # only complete_batch waits at the gate
    with ThreadPoolExecutor(max_workers=3) as pool:
        try:
            in_flight = pool.submit(llm.complete_batch, ["M"], "answer")
            assert inner.entered.acquire(timeout=10)  # held inside inner.complete_batch
            hit = pool.submit(llm.cached, "H", "p_rm").result(timeout=10)
            assert hit.text == warm.text and not inner.gate.is_set()
            # Not stored yet: a peek finds nothing and counts nothing ...
            assert pool.submit(llm.cached, "M", "answer").result(timeout=10) is None
            assert (llm.hits, llm.misses) == (1, 2)
            # ... and whoever would compute it waits for the one computing it.
            again = pool.submit(llm.complete, "M", "answer")
            assert wait([again], timeout=0.05).not_done
        finally:
            inner.gate.set()
        assert again.result(timeout=10).text == in_flight.result(timeout=10)[0].text
    assert inner.prompts == ["H", "M"]  # exactly once each
    assert (llm.hits, llm.misses, llm.usage.calls) == (2, 2, 4)


def test_a_short_backend_reply_stores_nothing(tmp_path):
    class DropsItsFirstReply(EchoLLM):
        def complete_batch(self, prompts, kind="other"):
            return [self._record(p, f"T:{p}", kind) for p in prompts][1:]

    store = PersistentCache(tmp_path / "cache")
    cached = CachedLLM(DropsItsFirstReply(), persistent=store)
    # At the parent: {'a': 'T:b', 'b': 'T:c'} stored, then KeyError('c').
    with pytest.raises(RuntimeError, match="2 completions for 3 prompts"):
        cached.complete_batch(["a", "b", "c"], kind="answer")
    assert cached.misses == 3 and cached.hits == 0
    assert len(store) == 0 and len(PersistentCache(tmp_path / "cache")) == 0
    assert [cached.cached(prompt) for prompt in "abc"] == [None, None, None]
    assert cached.usage.calls == 0  # no hit was served, before or after


def test_persistent_backend_survives_new_wrapper(tmp_path):
    store = PersistentCache(tmp_path / "cache")
    first_inner = EchoLLM(reply="pong")
    first = CachedLLM(first_inner, persistent=store)
    first.complete("hello")
    assert first_inner.usage.calls == 1

    # A fresh wrapper + fresh inner model (as after a process restart) is
    # served entirely from disk.
    second_inner = EchoLLM(reply="pong")
    second = CachedLLM(second_inner, persistent=PersistentCache(tmp_path / "cache"))
    completion = second.complete("hello")
    assert completion.text == "pong"
    assert second_inner.usage.calls == 0
    assert second.hits == 1 and second.persistent_hits == 1


def test_clear_keeps_persistent_store(tmp_path):
    store = PersistentCache(tmp_path / "cache")
    inner = EchoLLM(reply="x")
    cached = CachedLLM(inner, persistent=store)
    cached.complete("a")
    cached.clear()
    assert cached.hits == 0 and cached.misses == 0 and cached.persistent_hits == 0
    cached.complete("a")  # memory cleared, but the disk store still has it
    assert inner.usage.calls == 1
    assert cached.persistent_hits == 1


# ------------------------------------- an entry keeps the backend's counts
class CountingTokenizer(SimpleTokenizer):
    """Remembers every text it is asked to count."""

    def __init__(self):
        super().__init__()
        self.counted: list[str] = []

    def count(self, text):
        self.counted.append(text)
        return super().count(text)


class CharacterTokenizer(SimpleTokenizer):
    """Bills one token a character: counts ``SimpleTokenizer`` never gives."""

    def count(self, text):
        return len(text)


def _counting(cached: CachedLLM) -> CountingTokenizer:
    """Give the wrapper alone a counting tokenizer (the inner model keeps its
    own, so only the wrapper's tokenizing is seen)."""
    cached.tokenizer = CountingTokenizer()
    return cached.tokenizer


def _tokens(completion) -> tuple[int, int]:
    return completion.prompt_tokens, completion.completion_tokens


def test_a_miss_keeps_the_backends_counts_and_a_hit_reports_them():
    inner = EchoLLM(reply="pong pong, pong", tokenizer=CharacterTokenizer())
    cached = CachedLLM(inner)
    tokenizer = _counting(cached)
    prompt = "impute: city, timezone of Copenhagen 1234?"

    miss = cached.complete(prompt, kind="p_rm")
    # Every way to a hit: the loop thread's peek, a lone call, a batch lookup,
    # and a duplicate behind a miss of its own batch.
    hits = [cached.cached(prompt, "p_rm"), cached.complete(prompt)]
    hits += cached.complete_batch([prompt, prompt, "other", "other"], kind="answer")[:2]
    assert tokenizer.counted == []
    assert [_tokens(c) for c in [miss, *hits]] == [(42, 15)] * 5
    assert SimpleTokenizer().count(prompt) == 13  # not what the backend billed
    assert inner.usage.snapshot() == (2, 42 + 5, 2 * 15)
    assert cached.usage.snapshot() == (7, 5 * 42 + 2 * 5, 7 * 15)


def test_a_persistent_hit_keeps_the_stored_counts(tmp_path):
    store = PersistentCache(tmp_path / "cache")
    cached = CachedLLM(EchoLLM(), persistent=store)
    store.put(cached.key("stored prompt"), ("stored text", 7, 3))
    tokenizer = _counting(cached)
    first = cached.cached("stored prompt")
    second, third = cached.complete("stored prompt"), cached.complete_batch(["stored prompt"])[0]
    assert tokenizer.counted == []
    assert (cached.persistent_hits, cached.hits, cached.misses) == (1, 3, 0)
    assert [_tokens(c) for c in (first, second, third)] == [(7, 3)] * 3
    assert cached.usage.snapshot() == (3, 21, 9)


def test_counts_are_evicted_with_their_entry():
    inner = EchoLLM(reply="x y", tokenizer=CharacterTokenizer())
    cached = CachedLLM(inner, max_entries=2)
    tokenizer = _counting(cached)
    for prompt in ("a a", "b", "c"):  # "a a" is evicted by "c"
        cached.complete(prompt)
    assert len(cached._cache) == 2 and cached.key("a a") not in cached._cache
    again = cached.complete("a a")  # a miss again: the backend bills it again
    assert inner.usage.calls == 4 and len(cached._cache) == 2
    assert _tokens(again) == (3, 3)
    # A batch that evicts its own first entries still reports their counts.
    batch = cached.complete_batch(["d d d", "e", "f", "d d d"])
    assert [_tokens(c) for c in batch] == [(5, 3), (1, 3), (1, 3), (5, 3)]
    assert len(cached._cache) == 2 and tokenizer.counted == []


def test_a_different_text_under_a_stored_prompt_is_recounted():
    """The entry takes the counts of the completion it is made from."""
    cached = CachedLLM(EchoLLM(reply="one", tokenizer=CharacterTokenizer()))
    tokenizer = _counting(cached)
    assert _tokens(cached.complete("p")) == (1, 3)
    # What a racing fetch would do: store another completion of "p".
    cached._store(cached.key("p"), Completion("p", "two words, more", 1, 4))
    hit = cached.cached("p")
    assert (hit.text, _tokens(hit)) == ("two words, more", (1, 4))
    assert tokenizer.counted == []


# ------------------------------------- one by one or coalesced, the same counts
def _cache_counters(registry: MetricsRegistry) -> dict:
    counters = registry.snapshot()["counters"]
    return {name: value for name, value in counters.items() if name.startswith("cache.")}


@pytest.mark.parametrize("persistent", [False, True])
def test_a_duplicate_inside_a_batch_is_counted_like_a_sequential_hit(tmp_path, persistent):
    prompts = ["A", "B", "A", "A", "C", "B"]
    seen = []
    for name, coalesced in (("one-by-one", False), ("batch", True)):
        registry = MetricsRegistry()
        store = PersistentCache(tmp_path / name) if persistent else None
        cached = CachedLLM(EchoLLM(reply="hello"), persistent=store, metrics=registry)
        if store is not None:
            store.put(cached.key("C"), ("stored", 1, 1))
        if coalesced:
            completions = cached.complete_batch(prompts)
        else:
            completions = [cached.complete(prompt) for prompt in prompts]
        seen.append(
            (
                _cache_counters(registry),
                (cached.hits, cached.misses, cached.persistent_hits),
                cached.usage.snapshot(),
                [(c.prompt, c.text) for c in completions],
            )
        )
    assert seen[0] == seen[1]
    assert seen[1][0]["cache.hits"] == 3 + persistent


# ------------------------------------------------------------ the key's model
class OtherEcho(EchoLLM):
    name = "other-echo"


def test_a_key_names_the_model_and_the_prompt():
    assert CachedLLM(EchoLLM()).key("p") == prompt_key("echo", "p")
    assert len(prompt_key("echo", "p")) == 32
    # The identity is length-prefixed: no (model, prompt) pair shares bytes.
    assert prompt_key("ab", "c") != prompt_key("a", "bc")
    assert SimulatedLLM(seed=3).identity.endswith("#seed=3")
    assert CachedLLM(SimulatedLLM(seed=3)).identity == SimulatedLLM(seed=3).identity


@pytest.mark.parametrize(
    "first, second",
    [
        (lambda: SimulatedLLM(seed=0), lambda: SimulatedLLM(seed=1)),
        (lambda: EchoLLM(reply="one"), lambda: OtherEcho(reply="two")),
    ],
    ids=["seed", "model"],
)
def test_two_identities_over_one_store_miss_each_others_entries(tmp_path, first, second):
    """At the parent the key was the prompt alone: the second model was
    served the first one's completions from the shared directory."""
    prompts = ["hello there", "what is 2 + 2"]
    filled = CachedLLM(first(), persistent=PersistentCache(tmp_path))
    texts = [completion.text for completion in filled.complete_batch(prompts)]
    other_inner = second()
    other = CachedLLM(other_inner, persistent=PersistentCache(tmp_path))
    assert [other.cached(prompt) for prompt in prompts] == [None, None]
    other.complete_batch(prompts)
    assert (other.misses, other_inner.usage.calls) == (2, 2)
    assert len(PersistentCache(tmp_path)) == 4  # both models' entries, side by side
    again = CachedLLM(first(), persistent=PersistentCache(tmp_path))
    assert [completion.text for completion in again.complete_batch(prompts)] == texts
    assert again.persistent_hits == 2 and again.inner.usage.calls == 0


def test_an_older_store_opens_cold(tmp_path):
    """Records keyed by the prompt alone name no model: none is served."""
    with open(tmp_path / "cache.jsonl", "w", encoding="utf-8") as handle:
        for prompt in ("a", "b"):
            key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
            handle.write(json.dumps({"key": key, "text": "stale", "tokens": [1, 1]}) + "\n")
    inner = EchoLLM(reply="fresh")
    cached = CachedLLM(inner, persistent=PersistentCache(tmp_path))
    assert [c.text for c in cached.complete_batch(["a", "b"])] == ["fresh", "fresh"]
    assert (cached.misses, cached.persistent_hits, inner.usage.calls) == (2, 0, 2)
