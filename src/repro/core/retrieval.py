"""Automatic context retrieval (Section 4.2).

Two stages, both driven by the LLM:

* **meta-wise retrieval** (prompt ``p_rm``) selects which attributes of the
  table carry useful signal for the task and target attribute;
* **instance-wise retrieval** (prompt ``p_ri``) scores a random candidate pool
  of records for relevance to the target record and keeps the top-k.

When either stage is disabled (ablations, the "random" variants of Tables 1
and 4), the same number of attributes / records is drawn uniformly at random,
exactly as the paper's ablation protocol describes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ..datalake.sampling import sample_items, sample_records
from ..datalake.table import Record, Table
from ..llm.base import LanguageModel
from ..prompting.templates import INSTANCE_RETRIEVAL, META_RETRIEVAL
from .config import UniDMConfig
from .plan import LLMRequest, Plan, drive
from .serialization import numbered_instances
from .tasks.base import Task, restrict_attributes
from .types import PromptTrace

#: ``index: score`` lines; scores may be integral ("3: 4") or decimal
#: ("3: 4.5", "3: .5") — real models emit fractional relevance scores.
_SCORE_LINE = re.compile(r"^\s*(\d+)\s*[:)]\s*(\d+(?:\.\d+)?|\.\d+)")


@dataclass
class RetrievedContext:
    """The outcome of context retrieval for one task instance."""

    records: list[Record] = field(default_factory=list)
    attributes: list[str] = field(default_factory=list)
    selected_by_llm: list[str] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.records


class ContextRetriever:
    """Implements both retrieval stages of the pipeline."""

    def __init__(self, llm: LanguageModel, config: UniDMConfig):
        self.llm = llm
        self.config = config

    # ------------------------------------------------------------------ public
    def retrieve(
        self,
        task: Task,
        rng: np.random.Generator,
        trace: PromptTrace | None = None,
    ) -> RetrievedContext:
        """Run meta-wise + instance-wise retrieval for ``task``."""
        return drive(self.plan(task, rng, trace), self.llm)

    def plan(
        self,
        task: Task,
        rng: np.random.Generator,
        trace: PromptTrace | None = None,
    ) -> Plan:
        """Sans-IO plan for both retrieval stages (see :mod:`repro.core.plan`).

        All of the pipeline's own randomness (candidate pools, random-context
        fallbacks) is drawn inside this plan from ``rng``, which the pipeline
        derives per task — nothing here depends on what ran before.
        """
        table = task.table()
        if table is None or not task.needs_retrieval:
            return RetrievedContext()

        helpful = yield from self._attributes_plan(task, rng, trace)
        context_attributes = self._context_attribute_set(task, table, helpful)
        records = yield from self._records_plan(
            task, table, context_attributes, rng, trace
        )
        return RetrievedContext(
            records=records,
            attributes=context_attributes,
            selected_by_llm=helpful,
        )

    # --------------------------------------------------------- meta-wise stage
    def _attributes_plan(
        self,
        task: Task,
        rng: np.random.Generator,
        trace: PromptTrace | None,
    ) -> Plan:
        candidates = task.candidate_attributes()
        if not candidates or self.config.n_meta_attributes == 0:
            return []
        if not self.config.use_meta_retrieval:
            return sample_items(candidates, self.config.n_meta_attributes, rng=rng)

        prompt = META_RETRIEVAL.render(
            task=task.short_name,
            query=task.query(),
            candidates=", ".join(candidates),
        )
        text = yield LLMRequest(prompt, "p_rm")
        if trace is not None:
            trace.meta_retrieval = prompt
            trace.meta_retrieval_output = text
        names = [part.strip() for part in text.split(",")]
        helpful = restrict_attributes(names, candidates)
        if not helpful:
            helpful = sample_items(candidates, self.config.n_meta_attributes, rng=rng)
        return helpful[: self.config.n_meta_attributes]

    def _context_attribute_set(
        self, task: Task, table: Table, helpful: list[str]
    ) -> list[str]:
        """Attributes of the context table: subject key + helpful + targets."""
        ordered: list[str] = []
        pk = table.schema.primary_key()
        if pk is not None:
            ordered.append(pk.name)
        for name in helpful + task.target_attributes():
            if name in table.schema and name not in ordered:
                ordered.append(name)
        if not ordered:
            ordered = list(table.schema.names)
        return ordered

    # ------------------------------------------------------ instance-wise stage
    def _records_plan(
        self,
        task: Task,
        table: Table,
        attributes: list[str],
        rng: np.random.Generator,
        trace: PromptTrace | None,
    ) -> Plan:
        if self.config.top_k_instances == 0:
            return []
        exclude = {
            record.record_id
            for record in task.target_records()
            if record.record_id is not None
        }
        pool = sample_records(
            table, self.config.candidate_sample_size, rng=rng, exclude_ids=exclude
        )
        if not pool:
            return []
        if not self.config.use_instance_retrieval:
            return sample_items(pool, self.config.top_k_instances, rng=rng)

        prompt = INSTANCE_RETRIEVAL.render(
            task=task.short_name,
            query=task.query(),
            instances=numbered_instances(pool, attributes),
        )
        text = yield LLMRequest(prompt, "p_ri")
        if trace is not None:
            trace.instance_retrieval = prompt
            trace.instance_retrieval_output = text
        scores = self._parse_scores(text, len(pool))
        ranked = sorted(range(len(pool)), key=lambda i: (-scores[i], i))
        return [pool[i] for i in ranked[: self.config.top_k_instances]]

    @staticmethod
    def _parse_scores(text: str, n_instances: int) -> list[float]:
        """Parse "index: score" lines; unmentioned instances score 0."""
        scores = [0.0] * n_instances
        for line in text.splitlines():
            match = _SCORE_LINE.match(line)
            if not match:
                continue
            index = int(match.group(1)) - 1
            if 0 <= index < n_instances:
                scores[index] = float(match.group(2))
        return scores
