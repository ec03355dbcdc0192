"""Tests for the execution engine: ordering, equivalence, concurrency."""

import asyncio

import pytest

from repro.core import ImputationTask, UniDM, UniDMConfig
from repro.llm import CachedLLM, SimulatedLLM
from repro.serving import (
    EngineConfig,
    ExecutionEngine,
    PersistentCache,
)


def city_tasks(city_table):
    return [
        ImputationTask(city_table, city_table[5], "timezone"),
        ImputationTask(city_table, city_table[0], "timezone"),
        ImputationTask(city_table, city_table[3], "country"),
        ImputationTask(city_table, city_table[1], "country"),
    ]


def make_pipeline(knowledge, seed=0, persistent=None):
    llm = SimulatedLLM(knowledge=knowledge, seed=seed)
    if persistent is not None:
        llm = CachedLLM(llm, persistent=persistent)
    return UniDM(llm, UniDMConfig.full(seed=seed, candidate_sample_size=5, top_k_instances=2))


def result_fingerprint(results):
    return [
        (
            r.raw_answer,
            r.value,
            r.context_text,
            r.selected_attributes,
            r.trace.target_prompt,
            r.usage.calls,
            r.usage.prompt_tokens,
            r.usage.completion_tokens,
        )
        for r in results
    ]


# --------------------------------------------------------------- equivalence
def test_default_run_many_matches_run_loop_bitwise(city_table, city_knowledge):
    a = make_pipeline(city_knowledge, seed=5)
    b = make_pipeline(city_knowledge, seed=5)
    loop_results = [a.run(task) for task in city_tasks(city_table)]
    engine_results = b.run_many(city_tasks(city_table))
    assert result_fingerprint(loop_results) == result_fingerprint(engine_results)


def test_concurrent_engine_matches_sequential_on_warmed_cache(
    city_table, city_knowledge, tmp_path
):
    store = tmp_path / "cache"
    warm = make_pipeline(city_knowledge, seed=5, persistent=PersistentCache(store))
    sequential = [warm.run(task) for task in city_tasks(city_table)]

    # Fresh wrapper + fresh inner model, as a new process would have.
    cold = make_pipeline(city_knowledge, seed=5, persistent=PersistentCache(store))
    engine = ExecutionEngine(EngineConfig(max_batch_size=8, workers=4))
    concurrent = cold.run_many(city_tasks(city_table), engine=engine)

    assert result_fingerprint(sequential) == result_fingerprint(concurrent)
    assert cold.llm.hit_rate == 1.0  # everything served from the warmed store


def test_results_preserve_input_order(city_table, city_knowledge):
    pipeline = make_pipeline(city_knowledge)
    tasks = city_tasks(city_table)
    results = pipeline.run_many(
        tasks, engine=ExecutionEngine(EngineConfig(max_batch_size=4, workers=4))
    )
    assert [r.query for r in results] == [task.query() for task in tasks]


def test_empty_task_list(city_knowledge):
    pipeline = make_pipeline(city_knowledge)
    engine = ExecutionEngine()
    assert pipeline.run_many([], engine=engine) == []
    assert engine.last_report.n_tasks == 0


def test_engine_report_counts_requests(city_table, city_knowledge):
    pipeline = make_pipeline(city_knowledge)
    engine = ExecutionEngine(EngineConfig(max_batch_size=4, workers=4))
    results = engine.run(pipeline, city_tasks(city_table))
    report = engine.last_report
    assert report.n_tasks == len(results) == 4
    assert report.elapsed > 0
    assert report.tasks_per_second > 0
    # Every pipeline stage went through the batcher.
    assert report.stats is not None
    assert report.stats.requests == sum(r.usage.calls for r in results)
    assert set(report.stats.by_kind) <= {"p_rm", "p_ri", "p_dp", "p_cq", "answer"}


def test_per_task_usage_is_isolated(city_table, city_knowledge):
    pipeline = make_pipeline(city_knowledge)
    results = pipeline.run_many(
        city_tasks(city_table),
        engine=ExecutionEngine(EngineConfig(max_batch_size=4, workers=4)),
    )
    total = sum(r.usage.total_tokens for r in results)
    assert all(r.usage.total_tokens > 0 for r in results)
    assert pipeline.llm.usage.total_tokens == total


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_batch_size=0)
    with pytest.raises(ValueError):
        EngineConfig(workers=0)
    with pytest.raises(ValueError):
        EngineConfig(llm_threads=0)
    with pytest.raises(ValueError):
        EngineConfig(max_wait=-1.0)
    assert EngineConfig().with_updates(workers=2).workers == 2


def test_run_many_falls_back_to_plain_loop_inside_event_loop(
    city_table, city_knowledge
):
    # An engine's asyncio.run cannot nest, so the no-engine default must not
    # need one: callers already inside a loop get the plain loop over run().
    pipeline = make_pipeline(city_knowledge, seed=5)
    reference = make_pipeline(city_knowledge, seed=5)

    async def scenario():
        return pipeline.run_many(city_tasks(city_table))

    inside_loop = asyncio.run(scenario())
    expected = [reference.run(task) for task in city_tasks(city_table)]
    assert result_fingerprint(inside_loop) == result_fingerprint(expected)
