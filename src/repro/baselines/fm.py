"""FM baseline (Narayan et al. 2022, "Can foundation models wrangle your data?").

FM solves data wrangling tasks with a *single* prompt per query: the record is
serialized into ``attribute: value`` pairs, a handful of demonstration rows is
prepended (picked **manually** in the original paper, or **randomly** in the
ablated variant the paper also reports), and a short natural-language question
is appended.  There is no automatic context retrieval, no context parsing and
no cloze-prompt construction — precisely the pieces UniDM adds on top.

The baseline runs against the same :class:`~repro.llm.base.LanguageModel` as
UniDM, so accuracy differences come purely from the prompting recipe, and the
token accounting feeds the cost comparison of Table 7.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.serialization import serialize_record
from ..core.tasks.base import Task, first_line, parse_yes_no
from ..core.tasks.entity_resolution import EntityResolutionTask
from ..core.tasks.error_detection import ErrorDetectionTask
from ..core.tasks.imputation import ImputationTask
from ..core.tasks.transformation import TransformationTask
from ..datalake.table import is_missing
from ..datalake.text import string_similarity
from ..llm.base import LanguageModel
from ..llm.finetune import LabeledPair


class FMMethod:
    """Per-task FM baseline over a pluggable LLM.

    Parameters
    ----------
    llm:
        The language model used to answer the prompts.
    context_mode:
        ``"manual"`` picks the demonstration rows most similar to the query
        record (a stand-in for the original paper's hand-curated prompts);
        ``"random"`` samples them uniformly, matching the FM (random) rows of
        Tables 1 and 4.
    n_demonstrations:
        Number of demonstration rows / labelled pairs included in the prompt.
    er_examples:
        Optional labelled pairs available as entity-resolution demonstrations.
    """

    def __init__(
        self,
        llm: LanguageModel,
        context_mode: str = "manual",
        n_demonstrations: int = 3,
        er_examples: Sequence[LabeledPair] = (),
        seed: int = 0,
        name: str | None = None,
    ):
        if context_mode not in ("manual", "random"):
            raise ValueError("context_mode must be 'manual' or 'random'")
        self.llm = llm
        self.context_mode = context_mode
        self.n_demonstrations = n_demonstrations
        self.er_examples = list(er_examples)
        self.rng = np.random.default_rng(seed)
        self.name = name or f"FM ({context_mode})"

    # ------------------------------------------------------------------ dispatch
    def solve(self, task: Task) -> Any:
        if isinstance(task, ImputationTask):
            return self._solve_imputation(task)
        if isinstance(task, ErrorDetectionTask):
            return self._solve_error_detection(task)
        if isinstance(task, EntityResolutionTask):
            return self._solve_entity_resolution(task)
        if isinstance(task, TransformationTask):
            return self._solve_transformation(task)
        raise TypeError(f"FM baseline does not support task type {type(task).__name__}")

    # ---------------------------------------------------------------- imputation
    def _solve_imputation(self, task: ImputationTask) -> str:
        table = task.table()
        attribute = task.attribute
        feature_names = [n for n in table.schema.names if n != attribute]
        # A human curating the prompt picks records that are informative about
        # the *target attribute* (same neighbourhood / product line), so the
        # manual-selection proxy compares records on the non-key evidence
        # attributes rather than on the identifying name.
        pk = table.schema.primary_key()
        evidence_names = [n for n in feature_names if pk is None or n != pk.name] or feature_names
        candidates = [
            r
            for r in table
            if not is_missing(r[attribute]) and r.record_id != task.record.record_id
        ]
        demos = self._pick_demonstrations(
            candidates,
            key=lambda r: string_similarity(
                serialize_record(r, evidence_names),
                serialize_record(task.record, evidence_names),
            ),
        )
        lines = [
            f"{serialize_record(demo, feature_names)}. "
            f"What is the {attribute}? {demo[attribute]}"
            for demo in demos
        ]
        lines.append(
            f"{serialize_record(task.record, feature_names)}. What is the {attribute}?"
        )
        completion = self.llm.complete("\n".join(lines), kind="fm")
        return first_line(completion.text)

    # ------------------------------------------------------------ error detection
    def _solve_error_detection(self, task: ErrorDetectionTask) -> bool:
        prompt = f"Is there an error in {task.attribute}: {task.value}? Yes or No."
        completion = self.llm.complete(prompt, kind="fm")
        return parse_yes_no(completion.text)

    # ----------------------------------------------------------- entity resolution
    def _solve_entity_resolution(self, task: EntityResolutionTask) -> bool:
        target_a, target_b = task.describe_a(), task.describe_b()
        demos = self._pick_demonstrations(
            self.er_examples,
            key=lambda pair: string_similarity(
                pair.left + " " + pair.right, target_a + " " + target_b
            ),
        )
        lines = [
            f"Entity A is {pair.left}. Entity B is {pair.right}. "
            f"Are Entity A and Entity B the same? {'Yes' if pair.label else 'No'}"
            for pair in demos
        ]
        lines.append(
            f"Entity A is {target_a}. Entity B is {target_b}. "
            "Are Entity A and Entity B the same? Yes or No."
        )
        completion = self.llm.complete("\n".join(lines), kind="fm")
        return parse_yes_no(completion.text)

    # ------------------------------------------------------------- transformation
    def _solve_transformation(self, task: TransformationTask) -> str:
        lines = [f"{src} to {dst}" for src, dst in task.examples]
        lines.append(f"{task.source} to")
        completion = self.llm.complete("\n".join(lines), kind="fm")
        return first_line(completion.text)

    # ------------------------------------------------------------------- helpers
    def _pick_demonstrations(self, candidates: Sequence[Any], key) -> list[Any]:
        if not candidates or self.n_demonstrations <= 0:
            return []
        k = min(self.n_demonstrations, len(candidates))
        if self.context_mode == "random":
            indices = self.rng.choice(len(candidates), size=k, replace=False)
            return [candidates[int(i)] for i in np.atleast_1d(indices)]
        scored = sorted(candidates, key=key, reverse=True)
        return list(scored[:k])
