"""Shared core types: task taxonomy, results and usage records.

The unified framework of Section 3 describes every task as a function
``Y = F_T(R, S, D)``; these types carry the pieces of that formalism through
the pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from ..llm.base import UsageDelta


class TaskType(str, enum.Enum):
    """The data manipulation tasks subsumed by the unified framework."""

    DATA_IMPUTATION = "data imputation"
    DATA_TRANSFORMATION = "data transformation"
    ERROR_DETECTION = "error detection"
    ENTITY_RESOLUTION = "entity resolution"
    TABLE_QA = "table question answering"
    JOIN_DISCOVERY = "join discovery"
    INFORMATION_EXTRACTION = "information extraction"


#: Human-readable task descriptions used inside prompts (the ``T`` of the
#: formalism).  They follow the phrasing of the paper's Appendix A claims.
TASK_DESCRIPTIONS: dict[TaskType, str] = {
    TaskType.DATA_IMPUTATION: (
        "data imputation which produces the missing data with some value to "
        "retain most of the data."
    ),
    TaskType.DATA_TRANSFORMATION: (
        "data transformation which is the process of converting data from one "
        "format to another required format within a record."
    ),
    TaskType.ERROR_DETECTION: (
        "error detection which detect attribute error within a record in a "
        "data cleaning system."
    ),
    TaskType.ENTITY_RESOLUTION: (
        "entity resolution which is the process of predicting whether two "
        "records are referencing the same real-world thing."
    ),
    TaskType.TABLE_QA: (
        "table question answering which answers a question by retrieving the "
        "relevant information from a data table."
    ),
    TaskType.JOIN_DISCOVERY: (
        "join discovery which finds semantically joinable columns across "
        "different tables."
    ),
    TaskType.INFORMATION_EXTRACTION: (
        "information extraction which constructs a structured view of a set "
        "of semi-structured documents."
    ),
}


@dataclass
class PromptTrace:
    """The prompts issued (and completions received) while solving one query."""

    meta_retrieval: str | None = None
    meta_retrieval_output: str | None = None
    instance_retrieval: str | None = None
    instance_retrieval_output: str | None = None
    data_parsing: str | None = None
    data_parsing_output: str | None = None
    cloze_construction: str | None = None
    target_prompt: str | None = None
    answer: str | None = None


@dataclass
class ManipulationResult:
    """Outcome of running the pipeline on one task instance."""

    task_type: TaskType
    raw_answer: str
    value: Any
    query: str
    context_text: str = ""
    selected_attributes: list[str] = field(default_factory=list)
    trace: PromptTrace = field(default_factory=PromptTrace)
    usage: UsageDelta | None = None

    @property
    def total_tokens(self) -> int:
        return self.usage.total_tokens if self.usage else 0
