"""Evaluation harness: run a method over a benchmark and score it.

Two kinds of methods are supported:

* **per-task methods** expose ``solve(task) -> value`` (the UniDM pipeline and
  the FM baseline, which answer one query at a time);
* **dataset-level methods** expose ``predict_dataset(dataset) -> list`` (the
  traditional baselines — HoloClean, CMI, TDE, Ditto, ... — which fit on the
  whole table and emit all predictions at once).

The harness picks whichever interface a method provides, applies the metric
appropriate to the task type (accuracy, F1 or text F1) and records per-query
token consumption when the method owns an LLM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..core.pipeline import UniDM
from ..core.types import TaskType
from ..datasets.base import BenchmarkDataset
from .metrics import accuracy, confusion, f1_score, mean_text_f1


@runtime_checkable
class PerTaskMethod(Protocol):
    name: str

    def solve(self, task) -> Any: ...


@runtime_checkable
class DatasetMethod(Protocol):
    name: str

    def predict_dataset(self, dataset: BenchmarkDataset) -> list[Any]: ...


MethodLike = PerTaskMethod | DatasetMethod

#: Engine configuration applied by :func:`evaluate` when the caller passes no
#: explicit ``batch_size``/``workers`` (set via :func:`set_default_engine`,
#: e.g. by the CLI's ``--engine`` flag).  ``None`` means per-task execution.
_DEFAULT_ENGINE_CONFIG = None


def set_default_engine(config) -> None:
    """Install an :class:`~repro.serving.engine.EngineConfig` (or ``None``)
    used by every subsequent :func:`evaluate` call that doesn't pass engine
    options itself.  Lets ``python -m repro run-experiment --engine`` switch a
    whole experiment to batched execution without threading flags through
    every experiment module."""
    global _DEFAULT_ENGINE_CONFIG
    _DEFAULT_ENGINE_CONFIG = config


@dataclass
class EvaluationResult:
    """One (method, dataset) evaluation."""

    method: str
    dataset: str
    task_type: TaskType
    metric_name: str
    score: float
    n_tasks: int
    predictions: list[Any] = field(default_factory=list)
    ground_truth: list[Any] = field(default_factory=list)
    total_tokens: int = 0
    llm_calls: int = 0
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def score_percent(self) -> float:
        return 100.0 * self.score

    @property
    def tokens_per_query(self) -> float:
        return self.total_tokens / self.n_tasks if self.n_tasks else 0.0

    def summary(self) -> str:
        return (
            f"{self.method:<28s} {self.dataset:<18s} "
            f"{self.metric_name}={self.score_percent:5.1f}%  n={self.n_tasks}"
        )


def metric_for(task_type: TaskType) -> tuple[str, Callable[[Sequence, Sequence], float]]:
    """The (name, function) of the paper's metric for a task type."""
    if task_type in (TaskType.ERROR_DETECTION, TaskType.ENTITY_RESOLUTION, TaskType.JOIN_DISCOVERY):
        return "f1", f1_score
    if task_type is TaskType.INFORMATION_EXTRACTION:
        return "text_f1", mean_text_f1
    return "accuracy", accuracy


def evaluate(
    method: MethodLike,
    dataset: BenchmarkDataset,
    max_tasks: int | None = None,
    subset_seed: int = 0,
    batch_size: int | None = None,
    workers: int | None = None,
) -> EvaluationResult:
    """Run ``method`` over ``dataset`` and compute the paper's metric.

    ``batch_size``/``workers`` route a pipeline-backed per-task method through
    the serving :class:`~repro.serving.engine.ExecutionEngine` (wrapped in a
    local :class:`repro.api.Client`) instead of a sequential loop,
    micro-batching its LLM calls across tasks.
    """
    bench = dataset if max_tasks is None else dataset.subset(max_tasks, seed=subset_seed)
    metric_name, metric_fn = metric_for(bench.task_type)

    tokens_before, calls_before = _usage_of(method)
    if hasattr(method, "predict_dataset"):
        predictions = list(method.predict_dataset(bench))
        if len(predictions) != len(bench.tasks):
            raise ValueError(
                f"{method.name}: predict_dataset returned {len(predictions)} "
                f"predictions for {len(bench.tasks)} tasks"
            )
    else:
        engine = _engine_for(batch_size, workers)
        pipeline = _pipeline_of(method) if engine is not None else None
        if pipeline is not None:
            from ..api import Client

            with Client.local(pipeline=pipeline, engine=engine) as client:
                predictions = [
                    result.value for result in client.run_tasks(bench.tasks)
                ]
        else:
            predictions = [method.solve(task) for task in bench.tasks]
    tokens_after, calls_after = _usage_of(method)

    score = metric_fn(predictions, bench.ground_truth)
    extras: dict[str, Any] = {}
    if metric_name == "f1":
        matrix = confusion([bool(p) for p in predictions], [bool(t) for t in bench.ground_truth])
        extras.update(
            precision=matrix.precision, recall=matrix.recall, accuracy=matrix.accuracy
        )
    return EvaluationResult(
        method=getattr(method, "name", type(method).__name__),
        dataset=bench.name,
        task_type=bench.task_type,
        metric_name=metric_name,
        score=score,
        n_tasks=len(bench.tasks),
        predictions=predictions,
        ground_truth=list(bench.ground_truth),
        total_tokens=tokens_after - tokens_before,
        llm_calls=calls_after - calls_before,
        extras=extras,
    )


def evaluate_many(
    methods: Sequence[MethodLike],
    dataset: BenchmarkDataset,
    max_tasks: int | None = None,
) -> list[EvaluationResult]:
    """Evaluate several methods on the same benchmark."""
    return [evaluate(method, dataset, max_tasks=max_tasks) for method in methods]


def _engine_for(batch_size: int | None, workers: int | None):
    """Build the engine implied by evaluate()'s options (or the global default)."""
    from ..serving.engine import EngineConfig, ExecutionEngine

    if batch_size is None and workers is None:
        if _DEFAULT_ENGINE_CONFIG is None:
            return None
        return ExecutionEngine(_DEFAULT_ENGINE_CONFIG)
    return ExecutionEngine(
        EngineConfig(max_batch_size=batch_size or 8, workers=workers or 8)
    )


def _pipeline_of(method: Any):
    """The engine-capable pipeline behind ``method``, if it has one."""
    pipeline = method if isinstance(method, UniDM) else getattr(method, "pipeline", None)
    return pipeline if isinstance(pipeline, UniDM) else None


def _usage_of(method: Any) -> tuple[int, int]:
    """Total (tokens, calls) of the method's LLM, if it exposes one."""
    llm = getattr(method, "llm", None)
    usage = getattr(llm, "usage", None)
    if usage is None:
        return 0, 0
    return usage.total_tokens, usage.calls
