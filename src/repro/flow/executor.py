"""Streaming execution of compiled pipelines through a task-spec backend.

The executor walks a pipeline's stages in three structural layers:

* **segments** — maximal runs of partitionable stages, split at whole-table
  barriers (:class:`~repro.flow.operators.Join`,
  :class:`~repro.flow.operators.Ask`) and at
  :class:`~repro.flow.operators.Partition` markers (which change the
  streaming chunk size);
* **partition groups** — each segment streams its input table in
  partitions, and consecutive partitions totalling at most ``batch_size``
  rows (at least one partition) move through the segment together: at most
  ``max(batch_size, partition size)`` rows are compiled at once;
* **waves** — conflict-free LLM stages (see
  :func:`repro.flow.planner.independent_waves`) compile over every
  partition of a group against one shared dedup set and the run-wide result
  cache; their new specs leave in one submission (chunked at
  ``batch_size``), so a spec key is submitted at most once per run.

The backend is any callable ``submit(list[TaskSpec]) -> list[TaskResult]``
answering in order — :meth:`repro.api.Client.submit_many` (local engine or
TCP service alike) or the serving service's internal plan runner.  A failed
item aborts the run with a :class:`~repro.flow.operators.FlowError` naming
the stage credited with submitting it (the first to compile its key).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..datalake.table import Table
from ..obs.span import span
from .operators import FlowError, Operator, Partition
from .planner import Planner, WavePlan, independent_waves

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.results import TaskResult
    from ..api.specs import TaskSpec
    from .pipeline import Pipeline

#: How task specs reach an execution engine: a batch in, ordered results out.
SpecRunner = Callable[[Sequence["TaskSpec"]], "list[TaskResult]"]


@dataclass
class StageMetrics:
    """What one stage cost across every partition it ran on."""

    index: int
    op: str
    #: Compiled work items (before deduplication).
    items: int = 0
    #: Items whose spec was actually submitted (first seen in the run).
    submitted: int = 0
    #: Items served from the run-wide dedup cache instead.
    reused: int = 0
    #: Partitions this stage processed.
    partitions: int = 0

    def to_payload(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "op": self.op,
            "items": self.items,
            "submitted": self.submitted,
            "reused": self.reused,
            "partitions": self.partitions,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "StageMetrics":
        return cls(
            index=int(payload.get("index", 0)),
            op=str(payload.get("op", "")),
            items=int(payload.get("items", 0)),
            submitted=int(payload.get("submitted", 0)),
            reused=int(payload.get("reused", 0)),
            partitions=int(payload.get("partitions", 0)),
        )


@dataclass
class FlowReport:
    """Execution statistics of one pipeline run."""

    stages: list[StageMetrics] = field(default_factory=list)
    rows_in: int = 0
    rows_out: int = 0
    #: Compiled work items across all stages (what a per-row loop would run).
    specs: int = 0
    #: Specs actually submitted after cross-stage/partition deduplication.
    submitted: int = 0
    #: Distinct submission waves (dependency-aware stage fusion groups).
    waves: int = 0
    llm_tokens: int = 0
    llm_calls: int = 0
    elapsed: float = 0.0

    @property
    def reused(self) -> int:
        """Work items answered from the dedup cache instead of the LLM."""
        return self.specs - self.submitted

    @property
    def dedup_factor(self) -> float:
        """How many compiled items each submitted spec served (>= 1)."""
        return self.specs / self.submitted if self.submitted else 1.0

    def to_payload(self) -> dict[str, Any]:
        return {
            "stages": [stage.to_payload() for stage in self.stages],
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "specs": self.specs,
            "submitted": self.submitted,
            "waves": self.waves,
            "llm_tokens": self.llm_tokens,
            "llm_calls": self.llm_calls,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FlowReport":
        return cls(
            stages=[StageMetrics.from_payload(s) for s in payload.get("stages", [])],
            rows_in=int(payload.get("rows_in", 0)),
            rows_out=int(payload.get("rows_out", 0)),
            specs=int(payload.get("specs", 0)),
            submitted=int(payload.get("submitted", 0)),
            waves=int(payload.get("waves", 0)),
            llm_tokens=int(payload.get("llm_tokens", 0)),
            llm_calls=int(payload.get("llm_calls", 0)),
            elapsed=float(payload.get("elapsed", 0.0)),
        )


@dataclass
class FlowResult:
    """Outcome of one pipeline run: the output table plus side channels."""

    table: Table
    #: Table-level answers (Ask results, Join decisions), keyed by operator.
    answers: dict[str, Any] = field(default_factory=dict)
    report: FlowReport = field(default_factory=FlowReport)


class FlowExecutor:
    """Runs a pipeline over a table through a spec-submitting backend."""

    def __init__(self, submit: SpecRunner, *, batch_size: int = 64):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.submit = submit
        self.batch_size = batch_size

    # ------------------------------------------------------------------ running
    def run(self, pipeline: "Pipeline", table: Table) -> FlowResult:
        """Execute ``pipeline`` over ``table`` and return the result."""
        pipeline.validate(table.schema.names)
        planner = Planner()
        report = FlowReport(
            stages=[
                StageMetrics(index=i, op=op.op)
                for i, op in enumerate(pipeline.stages)
            ],
            rows_in=len(table),
        )
        answers: dict[str, Any] = {}
        started = time.perf_counter()

        current = table
        for kind, size, stages in _segments(pipeline):
            if kind == "barrier":
                report.waves += 1
                (current,) = self._run_waves(
                    [[stages]], [current], planner, report, answers
                )
                continue
            waves = independent_waves(stages)
            report.waves += len(waves)
            parts_out: list[Table] = []
            for group in _groups(_chunks(current, size), self.batch_size):
                parts_out += self._run_waves(waves, group, planner, report, answers)
            current = Table.concat(parts_out, name=current.name)
        report.rows_out = len(current)
        report.elapsed = time.perf_counter() - started
        return FlowResult(table=current, answers=answers, report=report)

    # ---------------------------------------------------------------- internals
    def _run_waves(
        self,
        waves: "list[list[tuple[int, Operator]]]",
        parts: list[Table],
        planner: Planner,
        report: FlowReport,
        answers: dict[str, Any],
    ) -> list[Table]:
        """Move a partition group through ``waves``: one submission per LLM wave."""
        # The bound on rows compiled at once: max(batch_size, partition size).
        assert len(parts) == 1 or sum(map(len, parts)) <= self.batch_size
        for wave in waves:
            if len(wave) == 1 and not wave[0][1].needs_llm:
                index, operator = wave[0]
                parts = [operator.transform(part) for part in parts]
                report.stages[index].partitions += len(parts)
                continue
            queued: set[str] = set()
            plans = [planner.plan_wave(wave, part, queued) for part in parts]
            total_specs = sum(len(sp.items) for plan in plans for sp in plan.plans)
            # One span per (group, LLM wave): submissions made inside inherit
            # it via the ambient context, so cluster dispatch spans nest beneath.
            with span("flow.wave", specs=total_specs, stages=len(wave), partitions=len(parts)):
                self._submit_new(plans, planner, report)
                for i, plan in enumerate(plans):
                    for stage_plan in plan.plans:
                        metrics = report.stages[stage_plan.index]
                        metrics.items += len(stage_plan.items)
                        metrics.submitted += stage_plan.fresh
                        metrics.reused += len(stage_plan.items) - stage_plan.fresh
                        metrics.partitions += 1
                        report.specs += len(stage_plan.items)
                        report.submitted += stage_plan.fresh
                        values = [planner.answer(key) for key in stage_plan.keys]
                        parts[i] = stage_plan.operator.apply(
                            parts[i], list(zip(stage_plan.items, values)), answers
                        )
        return parts

    def _submit_new(
        self, plans: list[WavePlan], planner: Planner, report: FlowReport
    ) -> None:
        pending = [pair for plan in plans for pair in plan.new]
        for start in range(0, len(pending), self.batch_size):
            chunk = pending[start : start + self.batch_size]
            results = self.submit([spec for _, spec in chunk])
            if len(results) != len(chunk):
                raise FlowError(
                    f"backend answered {len(results)} results for "
                    f"{len(chunk)} submitted specs"
                )
            for (key, _), result in zip(chunk, results):
                if result.error is not None:
                    # Blame the stage credited with the submission: the first to compile it.
                    index, op = next(
                        (sp.index, sp.operator.op)
                        for plan in plans
                        for sp in plan.plans
                        if key in sp.keys
                    )
                    raise FlowError(
                        f"stage {index} ({op}) failed: "
                        f"[{result.error.code}] {result.error.message}"
                    )
                planner.record(key, result)
                report.llm_tokens += result.tokens
                report.llm_calls += result.calls


def _segments(
    pipeline: "Pipeline",
) -> "list[tuple[str, int | None, Any]]":
    """Split the stage list into streaming segments and barrier stages.

    Returns ``("stream", size, [(index, op), ...])`` entries for runs of
    partitionable stages (``size`` is the partition size in force, ``None``
    meaning the whole table at once) and ``("barrier", size, (index, op))``
    entries for whole-table stages.  ``Partition`` markers update the size
    and are consumed here — they never execute.
    """
    segments: list[tuple[str, int | None, Any]] = []
    buffer: list[tuple[int, Operator]] = []
    size = pipeline.partition_size

    def flush() -> None:
        nonlocal buffer
        if buffer:
            segments.append(("stream", size, buffer))
        buffer = []

    for index, operator in enumerate(pipeline.stages):
        if isinstance(operator, Partition):
            flush()
            size = operator.size
            continue
        if not operator.partitionable:
            flush()
            segments.append(("barrier", size, (index, operator)))
            continue
        buffer.append((index, operator))
    flush()
    return segments


def _groups(parts: Iterable[Table], rows: int) -> Iterator[list[Table]]:
    """Runs of consecutive partitions totalling at most ``rows`` rows.

    A partition larger than ``rows`` is a group of one, so a group never
    holds more than ``max(rows, partition size)`` rows.
    """
    group: list[Table] = []
    total = 0
    for part in parts:
        if group and total + len(part) > rows:
            yield group
            group, total = [], 0
        group.append(part)
        total += len(part)
    yield group


def _chunks(table: Table, size: int | None) -> Iterable[Table]:
    # An empty table still flows through as one partition so that relational
    # stages (Select, added flag columns, ...) keep reshaping the schema.
    if len(table) == 0 or size is None or size >= len(table):
        return [table]
    return table.partitions(size)


__all__ = [
    "FlowExecutor",
    "FlowReport",
    "FlowResult",
    "SpecRunner",
    "StageMetrics",
]
