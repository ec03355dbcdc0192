"""Compiling pipeline stages into deduplicated, schedulable spec batches.

Two jobs live here:

* **Dependency-aware wave scheduling** — consecutive LLM stages whose
  read/write column sets do not conflict compile against the *same* input
  table and submit as one combined batch (:func:`independent_waves`).  Three
  ``Extract`` stages writing disjoint columns, for example, share one engine
  round instead of three; a ``Transform`` that reads a column an earlier
  wave member writes must wait for its own wave, and evidence-carrying
  operators (whole rows travel inside their specs) never follow any writer
  in a wave (:meth:`~repro.flow.operators.Operator.scans_all_columns`).
* **Cross-stage prompt deduplication** — every compiled
  :class:`~repro.flow.operators.WorkItem` is keyed by a digest of the
  canonical JSON of its spec's wire form; a spec already answered earlier in
  the run (another stage, another partition group, an earlier wave) or
  already queued for the same submission (earlier in the wave, or by another
  partition of the group) reuses the recorded result instead of
  re-submitting (:class:`Planner`).
  On lake tables with duplicated rows or repeated values this is where most
  of the LLM-call savings come from.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..api.specs import TaskSpec
from .operators import Operator, WorkItem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.results import TaskResult
    from ..datalake.table import Table


def spec_key(spec: TaskSpec) -> str:
    """Canonical dedup key of a spec: a digest of its key-sorted wire form.

    Evidence-carrying specs embed whole partitions, so the canonical JSON can
    be kilobytes per item; hashing it keeps the run-wide dedup cache at a few
    dozen bytes per distinct spec without changing dedup semantics.
    """
    canonical = json.dumps(
        spec.to_request(), sort_keys=True, ensure_ascii=False, default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def independent_waves(stages: Sequence[tuple[int, Operator]]) -> list[list[tuple[int, Operator]]]:
    """Group consecutive LLM stages into conflict-free submission waves.

    Stages in one wave compile against the same input table, so a stage may
    only join the current wave when neither its reads nor its writes touch a
    column an earlier wave member writes (no read-after-write or
    write-after-write hazards).  Non-LLM stages always form their own wave:
    they reshape the table every later compile must see.
    """
    waves: list[list[tuple[int, Operator]]] = []
    current: list[tuple[int, Operator]] = []
    written: set[str] = set()

    def flush() -> None:
        nonlocal current, written
        if current:
            waves.append(current)
        current, written = [], set()

    for index, operator in stages:
        if not operator.needs_llm:
            flush()
            waves.append([(index, operator)])
            continue
        touched = set(operator.reads()) | set(operator.writes())
        if (touched & written) or (operator.scans_all_columns() and written):
            flush()
        current.append((index, operator))
        written |= set(operator.writes())
    flush()
    return waves


@dataclass
class StagePlan:
    """The compiled work of one stage over one partition."""

    index: int
    operator: Operator
    items: list[WorkItem]
    #: Dedup key per item (aligned with ``items``).
    keys: list[str]
    #: How many of this plan's keys were first seen here (i.e. submitted).
    fresh: int = 0


@dataclass
class WavePlan:
    """One partition's share of a submission round: its stage plans and new work."""

    plans: list[StagePlan]
    #: First-seen (key, spec) pairs across the wave, in compile order.
    new: list[tuple[str, TaskSpec]] = field(default_factory=list)


class Planner:
    """Compiles operators into wave plans against a shared result cache."""

    def __init__(self) -> None:
        #: Answered specs for the whole run, keyed by :func:`spec_key`.
        self.results: dict[str, "TaskResult"] = {}

    def plan_wave(
        self,
        stages: Sequence[tuple[int, Operator]],
        table: "Table",
        queued: set[str] | None = None,
    ) -> WavePlan:
        """Compile every stage of a wave over ``table``, deduplicating specs.

        ``queued`` holds the keys already planned for the same submission:
        the partitions of one group share it, so a key compiled by several
        of them is new in the first plan only.
        """
        queued = set() if queued is None else queued
        wave = WavePlan(plans=[])
        for index, operator in stages:
            items = operator.compile(table)
            keys = [spec_key(item.spec) for item in items]
            fresh = 0
            for item, key in zip(items, keys):
                if key in self.results or key in queued:
                    continue
                queued.add(key)
                fresh += 1
                wave.new.append((key, item.spec))
            wave.plans.append(
                StagePlan(index=index, operator=operator, items=items, keys=keys, fresh=fresh)
            )
        return wave

    def record(self, key: str, result: "TaskResult") -> None:
        self.results[key] = result

    def answer(self, key: str) -> Any:
        return self.results[key].answer


__all__ = ["Planner", "StagePlan", "WavePlan", "independent_waves", "spec_key"]
