"""Unit tests for automatic context retrieval."""

import numpy as np

from repro.core import ImputationTask, UniDMConfig
from repro.core.plan import drive
from repro.core.retrieval import ContextRetriever
from repro.core.types import PromptTrace
from repro.llm import EchoLLM


def make_task(city_table):
    return ImputationTask(city_table, city_table[5], "timezone")


def test_retrieval_selects_llm_suggested_attribute(city_table, city_llm):
    config = UniDMConfig.full(candidate_sample_size=5, top_k_instances=2)
    retriever = ContextRetriever(config)
    trace = PromptTrace()
    plan = retriever.plan(make_task(city_table), np.random.default_rng(0), trace)
    context = drive(plan, city_llm)
    assert not context.is_empty
    assert context.selected_by_llm == ["country"]
    # context attributes: pk + helpful + target
    assert context.attributes[0] == "city"
    assert "timezone" in context.attributes
    assert len(context.records) <= 2
    assert trace.meta_retrieval is not None
    assert trace.instance_retrieval is not None


def test_retrieval_excludes_target_record(city_table, city_llm):
    config = UniDMConfig.full(candidate_sample_size=10, top_k_instances=5)
    retriever = ContextRetriever(config)
    context = drive(retriever.plan(make_task(city_table), np.random.default_rng(0)), city_llm)
    target_id = city_table[5].record_id
    assert all(record.record_id != target_id for record in context.records)


def test_random_variants_do_not_call_llm(city_table):
    llm = EchoLLM(reply="")
    config = UniDMConfig.random_context(candidate_sample_size=5, top_k_instances=2)
    retriever = ContextRetriever(config)
    context = drive(retriever.plan(make_task(city_table), np.random.default_rng(0)), llm)
    assert llm.usage.calls == 0
    assert len(context.records) == 2
    assert len(context.selected_by_llm) == 0 or context.selected_by_llm


def test_llm_garbage_reply_falls_back_to_random(city_table):
    llm = EchoLLM(reply="this mentions no attribute at all")
    config = UniDMConfig.full(candidate_sample_size=5, top_k_instances=2)
    retriever = ContextRetriever(config)
    context = drive(retriever.plan(make_task(city_table), np.random.default_rng(0)), llm)
    # One attribute is still chosen (randomly) despite the useless reply.
    assert len(context.selected_by_llm) == 1


def test_zero_topk_returns_no_records(city_table, city_llm):
    config = UniDMConfig.full(candidate_sample_size=5, top_k_instances=0)
    retriever = ContextRetriever(config)
    context = drive(retriever.plan(make_task(city_table), np.random.default_rng(0)), city_llm)
    assert context.records == []


def test_score_parser_handles_malformed_lines():
    scores = ContextRetriever._parse_scores("1: 3\nbogus line\n2) 1\n99: 2", 3)
    assert scores == [3.0, 1.0, 0.0]


def test_score_parser_accepts_decimal_scores():
    scores = ContextRetriever._parse_scores("1: 4.5\n2: 2.25\n3) 0.75", 3)
    assert scores == [4.5, 2.25, 0.75]


def test_score_parser_accepts_leading_decimal_point():
    scores = ContextRetriever._parse_scores("1: .5\n2: .25", 2)
    assert scores == [0.5, 0.25]


def test_score_parser_ranks_by_fractional_scores(city_table):
    # Decimal scores must actually order the pool: "2" outranks "1".
    llm = EchoLLM(reply="1: 1.25\n2: 2.75")
    config = UniDMConfig.full(candidate_sample_size=2, top_k_instances=1)
    retriever = ContextRetriever(config)
    context = drive(retriever.plan(make_task(city_table), np.random.default_rng(0)), llm)
    assert len(context.records) == 1


def test_no_table_task_yields_empty_context(city_llm):
    from repro.core import TransformationTask

    retriever = ContextRetriever(UniDMConfig.full())
    context = drive(
        retriever.plan(TransformationTask("a", [("x", "y")]), np.random.default_rng(0)), city_llm
    )
    assert context.is_empty
