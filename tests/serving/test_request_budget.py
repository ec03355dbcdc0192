"""The CPU budget of a request, held by counts instead of a stopwatch.

The engine's own cost is held the same way: the Python calls it makes a
spec, over what the sequential pipeline makes on the same batch
(``scripts/call_budget.py``), stay under a fixed bound and repeat exactly.

A served spec's per-request jobs are each done once: a prompt is tokenized
by the backend that bills it and never by the cache (an entry keeps the
backend's counts), and hashed once per ask into the one key every cache
layer takes; a spec is never hashed (no layer of the service path reads its
key), a wire table is built once.  The counts of
those jobs over a fixed batch repeat exactly, so a pass that creeps back in
fails here without a timing.  The token *numbers* are results (Table 7):
the same file pins them, sequential against engine, cold against warm.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT / "tests" / "cluster"))
sys.path.insert(0, str(ROOT / "scripts"))

from call_budget import measure  # noqa: E402
from cluster_testing import (  # noqa: E402
    FULL_CONFIG,
    BillingLLM,
    PromptPureLLM,
    make_mixed_specs,
    submit,
)

from repro.api import TaskResult, encode_request  # noqa: E402
from repro.cluster import Router  # noqa: E402
from repro.core import UniDM  # noqa: E402
from repro.datalake import Table  # noqa: E402
from repro.flow import planner  # noqa: E402
from repro.llm import CachedLLM, SimpleTokenizer  # noqa: E402
from repro.llm import cache as llm_cache  # noqa: E402
from repro.serving import PersistentCache  # noqa: E402
from repro.serving.service import ServingService, build_service  # noqa: E402

#: Four specs of each of the seven task types.
SPECS = make_mixed_specs(4)
#: Wire tables among them: one per imputation / table QA / error detection
#: spec, two per join discovery spec.
TABLES = 20
#: Distinct prompts the batch asks, and how often it asks one again.
DISTINCT_PROMPTS, REPEATED_PROMPTS = 49, 39


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the four jobs, by name."""
    counts: Counter = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(SimpleTokenizer, "count", counted("count", SimpleTokenizer.count))
    monkeypatch.setattr(planner, "spec_key", counted("spec_key", planner.spec_key))
    monkeypatch.setattr(Table, "__init__", counted("Table", Table.__init__))
    monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
    return counts


def _service(store=None):
    backend = PromptPureLLM()
    llm = CachedLLM(backend, persistent=store)
    return ServingService(UniDM(llm, FULL_CONFIG)), llm, backend


def _requests():
    return [encode_request(spec, request_id=index) for index, spec in enumerate(SPECS)]


def test_the_jobs_of_a_batch_are_each_done_once(calls):
    service, llm, backend = _service()
    try:
        requests = _requests()
        calls.clear()
        cold = service.handle_batch(requests)
        assert all(response["ok"] for response in cold)
        assert (llm.misses, llm.hits) == (DISTINCT_PROMPTS, REPEATED_PROMPTS)
        # A distinct prompt is tokenized twice (prompt, completion) by the
        # backend billing its own call, and never by the cache, which keeps
        # those counts; the 39 repeats, and no spec, no frame: nothing.
        assert dict(calls) == {"count": 2 * DISTINCT_PROMPTS, "Table": TABLES}

        calls.clear()
        replayed = service.handle_batch(_requests())
        assert llm.misses == DISTINCT_PROMPTS and backend.usage.calls == DISTINCT_PROMPTS
        assert dict(calls) == {"Table": TABLES}
        assert [r["result"] for r in replayed] == [r["result"] for r in cold]
    finally:
        service.close()


def test_a_spec_is_keyed_only_where_the_key_is_read(calls, tmp_path):
    """No layer of the service path reads a spec key — the cache keeps and
    places entries by prompt key — so no spec is keyed, with or without a
    persistent store."""
    specs = SPECS[:14]
    requests = [encode_request(spec, request_id=index) for index, spec in enumerate(specs)]
    for store in (None, PersistentCache(tmp_path / "shard")):
        calls.clear()
        service, llm, _ = _service(store)
        try:
            assert all(response["ok"] for response in service.handle_batch(requests))
        finally:
            service.close()
        # The one JSON job left is the store's: a line per entry it keeps.
        assert calls["spec_key"] == 0
        assert calls["dumps"] == (0 if store is None else llm.misses)
    assert len(store) == llm.misses > 14


# ------------------------------------------------------------ one key per ask
#: Prompts the batch asks, a hit or a miss: each is hashed exactly once.
ASKS = DISTINCT_PROMPTS + REPEATED_PROMPTS


@pytest.fixture
def digests(monkeypatch):
    """Calls of the cache key's digest, by prompt."""
    counts: Counter = Counter()
    digest = llm_cache.prompt_key

    def counted(model, prompt):
        counts[prompt] += 1
        return digest(model, prompt)

    monkeypatch.setattr(llm_cache, "prompt_key", counted)
    return counts


def _keyed_by_digest(cache: CachedLLM) -> bool:
    """Whether every structure of ``cache`` (and its store) is keyed by a
    32-byte digest, with no claim left held."""
    store = cache.persistent
    keys = [*cache._cache, *(store._entries if store is not None else ())]
    return not cache._claims and all(type(key) is bytes and len(key) == 32 for key in keys)


def test_a_prompt_is_hashed_once_per_ask_through_the_engine(digests, tmp_path):
    """Cold, warm, and from a reopened store: one digest a prompt asked,
    whatever answers it — the LRU, the store or the backend."""
    for store in (None, PersistentCache(tmp_path / "shard")):
        service, llm, backend = _service(store)
        try:
            for _ in range(2):  # every prompt computed, then every prompt a hit
                digests.clear()
                assert all(response["ok"] for response in service.handle_batch(_requests()))
                assert sum(digests.values()) == ASKS and len(digests) == DISTINCT_PROMPTS
        finally:
            service.close()
        assert llm.hits + llm.misses == 2 * ASKS and backend.usage.calls == DISTINCT_PROMPTS
        assert _keyed_by_digest(llm) and len(llm._cache) == DISTINCT_PROMPTS
    reopened, llm, backend = _service(PersistentCache(tmp_path / "shard"))
    try:
        digests.clear()
        assert all(response["ok"] for response in reopened.handle_batch(_requests()))
    finally:
        reopened.close()
    assert sum(digests.values()) == ASKS
    assert (llm.persistent_hits, backend.usage.calls) == (DISTINCT_PROMPTS, 0)


def test_a_prompt_is_hashed_once_per_ask_through_a_cluster(digests, tmp_path):
    """Four in-process workers sharing owners: a lookup, a claim, a parked
    ask's second lookup, the batch, the store and the placement all take the
    key made when the prompt was first asked."""
    backends = [PromptPureLLM() for _ in range(4)]
    with Router.local(
        4,
        llm_factory=backends.__getitem__,
        config=FULL_CONFIG,
        cache_dir=str(tmp_path),
        health_interval=None,
    ) as router:
        for _ in range(2):
            digests.clear()
            assert all(result.error is None for result in submit(router, SPECS))
            assert sum(digests.values()) == ASKS and len(digests) == DISTINCT_PROMPTS
        caches = [worker.service.pipeline.llm for worker in router.workers.values()]
        assert sum(cache.hits + cache.misses for cache in caches) == 2 * ASKS
        assert all(_keyed_by_digest(cache) for cache in caches)
    assert sum(backend.usage.calls for backend in backends) == DISTINCT_PROMPTS


def _usage(result):
    return (result.usage.calls, result.usage.prompt_tokens, result.usage.completion_tokens)


def test_token_numbers_are_the_same_on_every_path():
    """Sequential or through the engine, cold or warm: per-task usage,
    ``TaskResult.tokens`` and the wrapper's tracker agree — and read what
    they read before counts were kept with the cache entry (the literals)."""
    sequential_llm = CachedLLM(PromptPureLLM())
    pipeline = UniDM(sequential_llm, FULL_CONFIG)
    sequential = [pipeline.run(spec.to_task()) for spec in SPECS]
    assert sequential_llm.usage.snapshot() == (88, 24792, 148)
    warm = [pipeline.run(spec.to_task()) for spec in SPECS]
    assert sequential_llm.usage.snapshot() == (176, 49584, 296)

    service, llm, backend = _service()
    try:
        cold = service.run_tasks([spec.to_task() for spec in SPECS])
        assert llm.usage.snapshot() == (88, 24792, 148)
        replayed = service.run_tasks([spec.to_task() for spec in SPECS])
        assert llm.usage.snapshot() == (176, 49584, 296)
    finally:
        service.close()
    # What the backend billed: each distinct prompt once, on either path.
    assert backend.usage.snapshot() == sequential_llm.inner.usage.snapshot()
    assert backend.usage.calls == DISTINCT_PROMPTS

    expected = [_usage(result) for result in sequential]
    for results in (warm, cold, replayed):
        assert [_usage(result) for result in results] == expected
    tokens = [TaskResult.from_manipulation(result).tokens for result in cold]
    assert tokens == [sum(usage[1:]) for usage in expected]
    assert tokens[:7] == [875, 946, 817, 870, 839, 993, 895] and sum(tokens) == 24940


def test_a_result_reports_the_tokens_its_backend_billed(tmp_path):
    """``TaskResult.tokens`` is what the backend billed — here four
    characters a token, not ``SimpleTokenizer``'s count — cold, from the
    warm LRU and from a reopened persistent store."""
    specs = SPECS[:14]
    alone = [UniDM(BillingLLM(), FULL_CONFIG).run(spec.to_task()).total_tokens for spec in specs]
    counted = [UniDM(PromptPureLLM(), FULL_CONFIG).run(spec.to_task()).total_tokens for spec in specs]
    assert all(billed != count for billed, count in zip(alone, counted))

    def tokens(backend):
        service = build_service(llm=backend, cache_dir=str(tmp_path), config=FULL_CONFIG)
        try:
            return [[result.tokens for result in service.run(specs)] for _ in range(2)]
        finally:
            service.close()

    cold_backend, reopened_backend = BillingLLM(), BillingLLM()
    assert tokens(cold_backend) == [alone, alone]  # cold, then from the LRU
    assert tokens(reopened_backend) == [alone, alone]  # from the store
    assert len(cold_backend.billed) == cold_backend.usage.calls > 14
    assert reopened_backend.usage.calls == 0


#: Python calls a spec the engine may add to the sequential pipeline's on
#: ``SPECS`` (it added 206 when every task was a coroutine and every miss
#: a future; it adds 68.9).
ENGINE_CALLS_OVER_SEQUENTIAL = 80


def test_the_engine_adds_a_bounded_number_of_calls_a_spec():
    first, again = measure(SPECS), measure(SPECS)
    assert first == again  # a count, not a stopwatch: it repeats exactly
    sequential, engine = first["sequential"].per_spec, first["engine"].per_spec
    assert engine <= sequential + ENGINE_CALLS_OVER_SEQUENTIAL, (sequential, engine)
