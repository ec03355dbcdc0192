"""Unit and integration tests for the UniDM pipeline (Algorithm 1)."""

import pytest

from repro.core import (
    ImputationTask,
    InformationExtractionTask,
    TableQATask,
    TaskType,
    TransformationTask,
    UniDM,
    UniDMConfig,
    solve,
)
from repro.core.plan import drive
from repro.core.types import PromptTrace
from repro.llm import SimulatedLLM


@pytest.fixture
def pipeline(city_llm):
    return UniDM(city_llm, UniDMConfig.full(candidate_sample_size=5, top_k_instances=3))


def test_pipeline_runs_imputation_end_to_end(city_table, pipeline):
    task = ImputationTask(city_table, city_table[5], "timezone")
    result = pipeline.run(task)
    assert result.task_type is TaskType.DATA_IMPUTATION
    assert result.query == "Copenhagen, timezone"
    assert isinstance(result.value, str) and result.value
    assert result.usage is not None and result.usage.calls >= 3
    assert result.trace.target_prompt is not None
    assert result.total_tokens > 0


def test_pipeline_reproduces_paper_running_example(city_table, city_knowledge):
    # Figure 2: retrieval selects `country`, parsing produces fluent sentences,
    # the cloze asks for Copenhagen's timezone, and the answer is CET.
    llm = SimulatedLLM(knowledge=city_knowledge, seed=1)
    pipeline = UniDM(llm, UniDMConfig.full(candidate_sample_size=5, top_k_instances=3))
    result = pipeline.run(ImputationTask(city_table, city_table[5], "timezone"))
    assert result.trace.meta_retrieval_output == "country"
    assert "is a city in the country" in result.context_text
    assert "The timezone of Copenhagen is __." in result.trace.target_prompt
    assert result.value == "Central European Time"


def test_pipeline_transformation_uses_task_context(pipeline):
    task = TransformationTask("19990415", [("20000101", "2000-01-01"), ("20101231", "2010-12-31")])
    result = pipeline.run(task)
    assert "can be transformed to" in result.trace.target_prompt
    assert result.value == "1999-04-15"


def test_pipeline_extraction_uses_raw_document(pipeline):
    task = InformationExtractionTask(
        "<p>Kevin Durant is an American professional basketball player.</p>", "player"
    )
    result = pipeline.run(task)
    assert "The player is __." in result.trace.target_prompt
    assert isinstance(result.value, str)


def test_pipeline_table_qa(city_table, pipeline):
    result = pipeline.run(TableQATask(city_table, "which country is Copenhagen in?"))
    assert isinstance(result.value, str)


def test_run_many_and_solve(city_table, city_llm):
    tasks = [
        ImputationTask(city_table, city_table[5], "timezone"),
        ImputationTask(city_table, city_table[0], "timezone"),
    ]
    pipeline = UniDM(city_llm, UniDMConfig.random_context(candidate_sample_size=4, top_k_instances=2))
    results = [pipeline.run(task) for task in tasks]
    assert len(results) == 2
    single = solve(tasks[0], city_llm, UniDMConfig.random_context(candidate_sample_size=4, top_k_instances=2))
    assert isinstance(single.value, str)


def test_disabled_components_reduce_llm_calls(city_table, city_knowledge):
    full_llm = SimulatedLLM(knowledge=city_knowledge, seed=3)
    UniDM(full_llm, UniDMConfig.full(candidate_sample_size=5, top_k_instances=2)).run(
        ImputationTask(city_table, city_table[5], "timezone")
    )
    minimal_llm = SimulatedLLM(knowledge=city_knowledge, seed=3)
    UniDM(minimal_llm, UniDMConfig.baseline_prompting(candidate_sample_size=5, top_k_instances=2)).run(
        ImputationTask(city_table, city_table[5], "timezone")
    )
    assert minimal_llm.usage.calls < full_llm.usage.calls
    assert minimal_llm.usage.total_tokens < full_llm.usage.total_tokens


def test_token_accounting_is_per_query(city_table, city_llm):
    pipeline = UniDM(city_llm, UniDMConfig.full(candidate_sample_size=4, top_k_instances=2))
    first = pipeline.run(ImputationTask(city_table, city_table[5], "timezone"))
    second = pipeline.run(ImputationTask(city_table, city_table[0], "country"))
    assert first.usage.total_tokens > 0
    assert second.usage.total_tokens > 0
    assert city_llm.usage.total_tokens >= first.usage.total_tokens + second.usage.total_tokens


# ------------------------------------------------------------ the one plan
ROWS = [
    {"city": f"city-{i}", "country": f"country-{i % 4}", "zip": f"{10000 + 7 * i}"}
    for i in range(12)
]
STAGE_ORDER = ["p_rm", "p_ri", "p_dp", "p_cq", "answer"]


def one_task_per_type():
    from repro.api import (
        EntityResolutionSpec,
        ErrorDetectionSpec,
        ExtractionSpec,
        ImputationSpec,
        JoinDiscoverySpec,
        TableQASpec,
        TransformationSpec,
    )

    specs = [
        ImputationSpec(rows=ROWS, target={"city": "city-3", "zip": "9"}, attribute="country"),
        ErrorDetectionSpec(rows=ROWS, target={**ROWS[2], "zip": "0"}, attribute="zip"),
        TableQASpec(rows=ROWS, question="which country is city-5 in?"),
        TransformationSpec(value="19990415", examples=[["20000101", "2000-01-01"]]),
        ExtractionSpec(document="city-4 hosted the final.", attribute="city"),
        EntityResolutionSpec(
            record_a={"name": "item 1", "brand": "apple"},
            record_b={"name": "Item 1", "brand": "Apple"},
        ),
        JoinDiscoverySpec(
            table_a={"name": "rank", "rows": [{"abrv": "C1", "rank": 1}]},
            column_a="abrv",
            table_b={"name": "geo", "rows": [{"ISO": "C1", "area": "EU"}]},
            column_b="ISO",
        ),
    ]
    return [spec.to_task() for spec in specs]


def tap(plan, seen):
    """Pass ``plan`` through, noting each ``(prompt, kind)`` it yields."""
    try:
        request = next(plan)
        while True:
            seen.append((request.prompt, request.kind))
            request = plan.send((yield request))
    except StopIteration as stop:
        return stop.value


def test_the_plan_yields_what_run_asks_with_the_answer_last(gated_llm):
    class Recording(gated_llm):
        def __init__(self):
            super().__init__(open_gate=True)
            self.asked = []

        def complete(self, prompt, kind="other"):
            self.asked.append((prompt, kind))
            return super().complete(prompt, kind=kind)

    tasks = one_task_per_type()
    assert len({task.task_type for task in tasks}) == 7
    for task in tasks:
        ran = Recording()
        result = UniDM(ran, UniDMConfig.full(seed=0)).run(task)
        planned, seen, trace = Recording(), [], PromptTrace()
        plan = UniDM(planned, UniDMConfig.full(seed=0)).plan(task, trace)
        context = drive(tap(plan, seen), planned)
        assert seen == planned.asked == ran.asked, task.task_type
        assert seen[-1] == (trace.target_prompt, "answer")
        ranks = [STAGE_ORDER.index(kind) for _, kind in seen]
        assert ranks == sorted(ranks), task.task_type  # Algorithm 1 order
        assert trace.answer == result.raw_answer and trace == result.trace
        assert context.text == result.context_text
