"""Unit tests for the caching LLM wrapper."""

from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from repro.llm import CachedLLM, EchoLLM
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
