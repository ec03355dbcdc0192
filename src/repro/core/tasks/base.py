"""Task adapters: how each concrete data manipulation task plugs into UniDM.

Section 3 of the paper formalises a task as ``Y = F_T(R, S, D)``; Section 4.5
explains that moving between tasks only requires adapting the target query
``Q``, the candidate attribute set ``S'`` and the way modules are combined.
Those adaptation points are exactly the methods of :class:`Task` below; the
pipeline itself (Algorithm 1) is task-agnostic.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

from ...datalake.table import Record, Table
from ..types import TASK_DESCRIPTIONS, TaskType


class Task(abc.ABC):
    """One concrete unit of work, e.g. "impute the city of this record"."""

    task_type: TaskType

    # -- prompt ingredients ------------------------------------------------------
    @property
    def description(self) -> str:
        """The full task description ``T`` placed inside prompts."""
        return TASK_DESCRIPTIONS[self.task_type]

    @property
    def short_name(self) -> str:
        """The short task name ("data imputation") used in retrieval prompts."""
        return self.task_type.value

    @abc.abstractmethod
    def query(self) -> str:
        """The target query ``Q`` (Section 4.5 gives the per-task form)."""

    # -- retrieval inputs ---------------------------------------------------------
    @property
    def needs_retrieval(self) -> bool:
        """Whether automatic context retrieval applies to this task."""
        return True

    def table(self) -> Table | None:
        """The table ``D_i`` that context is retrieved from (if any)."""
        return None

    def target_records(self) -> list[Record]:
        """The record subset ``R`` the task operates on."""
        return []

    def target_attributes(self) -> list[str]:
        """The attribute subset ``S`` the task operates on."""
        return []

    def candidate_attributes(self) -> list[str]:
        """The candidate set ``S'`` offered to meta-wise retrieval."""
        table = self.table()
        if table is None:
            return []
        exclude = set(self.target_attributes())
        return [name for name in table.schema.names if name not in exclude]

    # -- pre-supplied context -------------------------------------------------------
    def context_rows(self) -> list[list[tuple[str, str]]] | None:
        """Context rows supplied by the task itself (bypasses retrieval).

        Data transformation, for example, carries its input/output examples in
        the task specification rather than in the lake.
        """
        return None

    def context_text(self) -> str | None:
        """Raw textual context supplied by the task itself (e.g. a document)."""
        return None

    # -- answer handling ---------------------------------------------------------------
    @abc.abstractmethod
    def parse_answer(self, text: str) -> Any:
        """Convert the LLM's raw answer text into the task's typed result."""

    # -- cosmetics ----------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(query={self.query()!r})"


def parse_yes_no(text: str) -> bool:
    """Interpret a yes/no completion; defaults to False on ambiguity."""
    lowered = text.strip().lower()
    if lowered.startswith("yes") or " yes" in lowered[:16]:
        return True
    return False


def first_line(text: str) -> str:
    """The first non-empty line of a completion, stripped of punctuation."""
    for line in str(text).splitlines():
        cleaned = line.strip().strip(".").strip()
        if cleaned:
            return cleaned
    return str(text).strip()


def restrict_attributes(names: Sequence[str], valid: Sequence[str]) -> list[str]:
    """Keep only names that exist in ``valid`` (case-insensitive), in order."""
    valid_map = {v.lower(): v for v in valid}
    out = []
    for name in names:
        key = name.strip().lower()
        if key in valid_map and valid_map[key] not in out:
            out.append(valid_map[key])
    return out
