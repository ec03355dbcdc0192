"""Ditto baseline (Li et al. 2020) — fine-tuned matcher for entity resolution.

Ditto fine-tunes a pre-trained transformer on labelled record pairs.  The
reproduction keeps the supervised-matcher shape: each candidate pair is turned
into a feature vector of string/numeric similarities over the serialized
records, and a logistic-regression head is trained on the benchmark's labelled
training split.  Because it *learns from in-domain labels* it remains strong on
the domain-specific benchmarks (Amazon-Google) where zero-shot LLM prompting
struggles — the behaviour Table 4 highlights.
"""

from __future__ import annotations

import re
from typing import Any, Sequence

import numpy as np

from ..core.tasks.entity_resolution import EntityResolutionTask
from ..core.types import TaskType
from ..datalake.text import (
    edit_similarity,
    numeric_similarity,
    token_jaccard,
    trigram_jaccard,
)
from ..datasets.base import BenchmarkDataset
from ..llm.finetune import LabeledPair
from .base import Baseline


def pair_features(left: str, right: str) -> np.ndarray:
    """Similarity feature vector of two serialized records."""
    numbers_left = re.findall(r"\d+\.?\d*", left)
    numbers_right = re.findall(r"\d+\.?\d*", right)
    number_overlap = 0.0
    if numbers_left and numbers_right:
        number_overlap = len(set(numbers_left) & set(numbers_right)) / len(
            set(numbers_left) | set(numbers_right)
        )
    return np.array(
        [
            1.0,
            token_jaccard(left, right),
            trigram_jaccard(left, right),
            edit_similarity(left, right),
            numeric_similarity(
                numbers_left[-1] if numbers_left else "",
                numbers_right[-1] if numbers_right else "",
            ),
            number_overlap,
            abs(len(left) - len(right)) / max(len(left), len(right), 1),
        ]
    )


class DittoMatcher(Baseline):
    """Supervised similarity-feature matcher trained on labelled pairs."""

    name = "Ditto"

    def __init__(self, seed: int = 0, learning_rate: float = 0.8, epochs: int = 400):
        super().__init__(seed)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.weights: np.ndarray | None = None

    # -- training -------------------------------------------------------------------
    def fit(self, pairs: Sequence[LabeledPair]) -> "DittoMatcher":
        if not pairs:
            raise ValueError("Ditto requires labelled training pairs")
        X = np.vstack([pair_features(p.left, p.right) for p in pairs])
        y = np.array([1.0 if p.label else 0.0 for p in pairs])
        weights = np.zeros(X.shape[1])
        for _ in range(self.epochs):
            predictions = _sigmoid(X @ weights)
            gradient = X.T @ (predictions - y) / len(y)
            weights -= self.learning_rate * gradient
        self.weights = weights
        return self

    # -- inference -------------------------------------------------------------------
    def predict_pair(self, left: str, right: str) -> bool:
        if self.weights is None:
            raise RuntimeError("call fit() before predicting")
        return bool(_sigmoid(pair_features(left, right) @ self.weights) >= 0.5)

    def predict_dataset(self, dataset: BenchmarkDataset) -> list[Any]:
        self._check_task_type(dataset, TaskType.ENTITY_RESOLUTION)
        if self.weights is None:
            if not dataset.train_pairs:
                raise ValueError(
                    f"dataset {dataset.name!r} has no training split for Ditto"
                )
            self.fit(dataset.train_pairs)
        predictions: list[bool] = []
        for task in dataset.tasks:
            if not isinstance(task, EntityResolutionTask):
                raise TypeError(f"unexpected task type {type(task)!r}")
            predictions.append(self.predict_pair(task.describe_a(), task.describe_b()))
        return predictions


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
