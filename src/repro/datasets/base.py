"""Common infrastructure for the synthetic benchmark datasets.

Every dataset builder produces a :class:`BenchmarkDataset` holding the
generated tables, the task instances to solve, the aligned ground truth, and a
:class:`~repro.llm.knowledge.WorldKnowledge` store describing what a
pre-trained LLM would plausibly know about the generated entities (see the
substitution table in DESIGN.md).  Builders are deterministic given a seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..core.tasks.base import Task
from ..core.types import TaskType
from ..datalake.table import Table
from ..llm.finetune import LabeledPair
from ..llm.knowledge import WorldKnowledge


@dataclass
class BenchmarkDataset:
    """A generated benchmark: tables + tasks + ground truth + knowledge."""

    name: str
    task_type: TaskType
    tables: dict[str, Table]
    knowledge: WorldKnowledge
    tasks: list[Task]
    ground_truth: list[Any]
    train_pairs: list[LabeledPair] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.tasks) != len(self.ground_truth):
            raise ValueError(
                f"{self.name}: tasks ({len(self.tasks)}) and ground truth "
                f"({len(self.ground_truth)}) must be aligned"
            )

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def table(self) -> Table:
        """The primary table (useful for single-table benchmarks)."""
        if len(self.tables) == 1:
            return next(iter(self.tables.values()))
        raise ValueError(
            f"{self.name} has {len(self.tables)} tables; access .tables explicitly"
        )

    def subset(self, n: int, seed: int = 0) -> "BenchmarkDataset":
        """A smaller dataset with ``n`` randomly chosen task instances."""
        if n >= len(self.tasks):
            return self
        rng = np.random.default_rng(seed)
        idx = sorted(rng.choice(len(self.tasks), size=n, replace=False).tolist())
        return BenchmarkDataset(
            name=f"{self.name}[{n}]",
            task_type=self.task_type,
            tables=self.tables,
            knowledge=self.knowledge,
            tasks=[self.tasks[i] for i in idx],
            ground_truth=[self.ground_truth[i] for i in idx],
            train_pairs=self.train_pairs,
            extra=dict(self.extra),
        )


class DatasetBuilder(abc.ABC):
    """Base class for the seeded synthetic dataset generators."""

    #: Registry name of the dataset, e.g. ``"restaurant"``.
    name: str = ""
    task_type: TaskType

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    @abc.abstractmethod
    def build(self) -> BenchmarkDataset:
        """Generate the dataset (deterministic for a fixed seed)."""

    # -- shared helpers ------------------------------------------------------------
    def choice(self, items: Sequence[Any]) -> Any:
        return items[int(self.rng.integers(len(items)))]

    def sample(self, items: Sequence[Any], k: int) -> list[Any]:
        k = min(k, len(items))
        idx = self.rng.choice(len(items), size=k, replace=False)
        return [items[int(i)] for i in np.atleast_1d(idx)]

    def shuffled(self, items: Sequence[Any]) -> list[Any]:
        idx = self.rng.permutation(len(items))
        return [items[int(i)] for i in idx]
