"""The CPU budget of a request, held by counts instead of a stopwatch.

A served spec's per-request jobs are each done once: a prompt is tokenized
when its cache entry is made and never on a hit, a spec is hashed only when
a route index will read the key, a wire table is built once.  The counts of
those jobs over a fixed batch repeat exactly, so a pass that creeps back in
fails here without a timing.  The token *numbers* are results (Table 7):
the same file pins them, sequential against engine, cold against warm.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "cluster"))

from cluster_testing import FULL_CONFIG, PromptPureLLM, make_mixed_specs  # noqa: E402

from repro.api import TaskResult, encode_request  # noqa: E402
from repro.core import UniDM  # noqa: E402
from repro.datalake import Table  # noqa: E402
from repro.flow import planner  # noqa: E402
from repro.llm import CachedLLM, SimpleTokenizer  # noqa: E402
from repro.serving import PersistentCache  # noqa: E402
from repro.serving.service import ServingService  # noqa: E402

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
        # cache when its entry is made, and twice by the backend billing its
        # own call; the 39 repeats, and no spec, no frame: nothing.
        assert dict(calls) == {"count": 4 * DISTINCT_PROMPTS, "Table": TABLES}

        calls.clear()
        replayed = service.handle_batch(_requests())
        assert llm.misses == DISTINCT_PROMPTS and backend.usage.calls == DISTINCT_PROMPTS
        assert dict(calls) == {"Table": TABLES}
        assert [r["result"] for r in replayed] == [r["result"] for r in cold]
    finally:
        service.close()


def test_a_spec_is_keyed_only_where_the_key_is_read(calls, tmp_path, monkeypatch):
    tagged: list = []
    run_many = UniDM.run_many

    def recording(self, tasks, engine=None):
        tagged.extend(task.route_key for task in tasks)
        return run_many(self, tasks, engine=engine)

    monkeypatch.setattr(UniDM, "run_many", recording)
    specs = SPECS[:14]
    requests = [encode_request(spec, request_id=index) for index, spec in enumerate(specs)]

    service, _, _ = _service()
    try:
        assert all(response["ok"] for response in service.handle_batch(requests))
    finally:
        service.close()
    assert calls["spec_key"] == 0 and calls["dumps"] == 0
    assert tagged == [None] * 14

    del tagged[:]
    store = PersistentCache(tmp_path / "shard")
    service, llm, _ = _service(store)
    try:
        assert all(response["ok"] for response in service.handle_batch(requests))
    finally:
        service.close()
    keys = [planner.spec_key(spec) for spec in specs]
    assert calls["spec_key"] == 14 + len(keys) and tagged == keys
    # Every prompt asked, hit or miss, is attributed to a spec that asked it.
    routed = {row["key"] for row in store.entries_for_routes(set(keys))}
    assert len(routed) == len(store) == llm.misses > 14


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
