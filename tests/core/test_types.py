"""Unit tests for the core result / trace types."""

from repro.core.types import TASK_DESCRIPTIONS, ManipulationResult, TaskType
from repro.llm.base import UsageDelta


def test_every_task_type_has_a_description():
    for task_type in TaskType:
        assert task_type in TASK_DESCRIPTIONS
        assert task_type.value.split()[0] in TASK_DESCRIPTIONS[task_type]


def test_manipulation_result_token_total():
    result = ManipulationResult(
        task_type=TaskType.DATA_IMPUTATION,
        raw_answer="x",
        value="x",
        query="q",
        usage=UsageDelta(calls=2, prompt_tokens=10, completion_tokens=5),
    )
    assert result.total_tokens == 15
    assert ManipulationResult(
        task_type=TaskType.DATA_IMPUTATION, raw_answer="x", value="x", query="q"
    ).total_tokens == 0
