"""Unit tests for the caching LLM wrapper."""

from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from repro.llm import CachedLLM, EchoLLM, SimpleTokenizer
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


def test_kind_is_forwarded_to_inner_model():
    inner = EchoLLM(reply="x")
    cached = CachedLLM(inner)
    cached.complete("p", kind="p_rm")
    cached.complete("p", kind="p_rm")  # hit: inner untouched
    cached.complete("q", kind="answer")
    assert set(inner.usage.per_prompt_kind) == {"p_rm", "answer"}
    assert set(cached.usage.per_prompt_kind) == {"p_rm", "answer"}
    assert cached.usage.per_prompt_kind["p_rm"] > inner.usage.per_prompt_kind["p_rm"]


def test_complete_batch_deduplicates_within_batch():
    inner = EchoLLM(reply="x")
    cached = CachedLLM(inner)
    completions = cached.complete_batch(["a", "b", "a", "a"], kind="p_dp")
    assert [c.prompt for c in completions] == ["a", "b", "a", "a"]
    assert inner.usage.calls == 2  # "a" computed once, "b" once
    # Sequential semantics: first occurrences miss, repeats hit.
    assert cached.misses == 2 and cached.hits == 2
    assert cached.usage.calls == 4
    assert inner.usage.per_prompt_kind == {"p_dp": inner.usage.total_tokens}


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
    # Recorded like any hit: wrapper usage, under the kind it was asked as.
    assert first.usage.calls == 2 and inner.usage.calls == 1
    assert set(first.usage.per_prompt_kind) == {"p_rm", "answer"}

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


# ------------------------------------------------- an entry carries its counts
class CountingTokenizer(SimpleTokenizer):
    """Remembers every text it is asked to count."""

    def __init__(self):
        super().__init__()
        self.counted: list[str] = []

    def count(self, text):
        self.counted.append(text)
        return super().count(text)


def _counting(cached: CachedLLM) -> CountingTokenizer:
    """Give the wrapper alone a counting tokenizer (the inner model keeps its
    own, so only the wrapper's accounting is seen)."""
    cached.tokenizer = CountingTokenizer()
    return cached.tokenizer


def _tokens(completion) -> tuple[int, int]:
    return completion.prompt_tokens, completion.completion_tokens


def _plain_tokens(prompt: str, text: str) -> tuple[int, int]:
    return SimpleTokenizer().count(prompt), SimpleTokenizer().count(text)


def test_a_miss_is_tokenized_once_and_a_hit_never():
    cached = CachedLLM(EchoLLM(reply="pong pong, pong"))
    tokenizer = _counting(cached)
    prompt = "impute: city, timezone of Copenhagen 1234?"
    expected = _plain_tokens(prompt, "pong pong, pong")

    miss = cached.complete(prompt, kind="p_rm")
    assert tokenizer.counted == [prompt, "pong pong, pong"]
    # Every way to a hit: the loop thread's peek, a lone call, a batch lookup,
    # and a duplicate behind a miss of its own batch.
    hits = [cached.cached(prompt, "p_rm"), cached.complete(prompt)]
    hits += cached.complete_batch([prompt, prompt, "other", "other"], kind="answer")[:2]
    assert tokenizer.counted == [prompt, "pong pong, pong", "other", "pong pong, pong"]
    assert [_tokens(c) for c in [miss, *hits]] == [expected] * 5
    other = SimpleTokenizer().count("other")
    assert cached.usage.snapshot() == (7, 5 * expected[0] + 2 * other, 7 * expected[1])


def test_a_persistent_hit_is_tokenized_when_promoted_and_not_again(tmp_path):
    store = PersistentCache(tmp_path / "cache")
    store.put("stored prompt", "stored text")
    cached = CachedLLM(EchoLLM(), persistent=store)
    tokenizer = _counting(cached)
    first = cached.cached("stored prompt")
    assert tokenizer.counted == ["stored prompt", "stored text"]
    second, third = cached.complete("stored prompt"), cached.complete_batch(["stored prompt"])[0]
    assert tokenizer.counted == ["stored prompt", "stored text"]
    assert (cached.persistent_hits, cached.hits, cached.misses) == (1, 3, 0)
    expected = _plain_tokens("stored prompt", "stored text")
    assert [_tokens(c) for c in (first, second, third)] == [expected] * 3


def test_counts_are_evicted_with_their_entry():
    cached = CachedLLM(EchoLLM(reply="x y"), max_entries=2)
    tokenizer = _counting(cached)
    for prompt in ("a a", "b", "c"):  # "a a" is evicted by "c"
        cached.complete(prompt)
    assert len(cached._cache) == 2 and len(tokenizer.counted) == 6
    again = cached.complete("a a")
    assert tokenizer.counted[6:] == ["a a", "x y"] and len(cached._cache) == 2
    assert _tokens(again) == (2, 2)
    # A batch that evicts its own first entries still reports their counts.
    batch = cached.complete_batch(["d d d", "e", "f", "d d d"])
    assert [_tokens(c) for c in batch] == [(3, 2), (1, 2), (1, 2), (3, 2)]
    assert len(cached._cache) == 2


def test_a_different_text_under_a_stored_prompt_is_recounted():
    cached = CachedLLM(EchoLLM(reply="one"))
    tokenizer = _counting(cached)
    assert _tokens(cached.complete("p")) == (1, 1)
    cached._store("p", "one")  # the same text again: the entry stands
    assert tokenizer.counted == ["p", "one"]
    cached._store("p", "two words, more")  # what a racing fetch would do
    assert tokenizer.counted == ["p", "one", "p", "two words, more"]
    hit = cached.cached("p")
    assert (hit.text, _tokens(hit)) == ("two words, more", (1, 5))


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
        if store is not None:
            store.put("C", "stored")
        cached = CachedLLM(EchoLLM(reply="hello"), persistent=store, metrics=registry)
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
    # At the parent the batch served its three duplicates' 15 bytes uncounted.
    served = 15 + (len("stored") if persistent else 0)
    assert seen[1][0]["cache.bytes_served"] == served
    assert seen[1][0]["cache.hits"] == 3 + persistent
