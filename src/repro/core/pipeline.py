"""The UniDM pipeline — Algorithm 1 of the paper.

Given a task instance (one of the adapters in :mod:`repro.core.tasks`), the
pipeline runs the three main steps end-to-end:

1. automatic context retrieval (meta-wise ``p_rm`` then instance-wise ``p_ri``),
2. context data parsing (``serialize()`` then ``p_dp``),
3. target prompt construction (``p_cq`` producing the cloze prompt ``p_as``),

and finally queries the LLM with the constructed prompt to obtain the answer
``Y``.  Every step can be disabled through :class:`~repro.core.config.UniDMConfig`
for the ablation studies, and per-query token usage is tracked for the cost
comparison of Table 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..datalake.sampling import make_rng
from ..llm.base import LanguageModel, UsageDelta
from .cloze import TargetPromptBuilder
from .config import UniDMConfig
from .parsing import ContextParser, ParsedContext
from .plan import LLMRequest, Plan, drive
from .retrieval import ContextRetriever, RetrievedContext
from .tasks.base import Task
from .types import ManipulationResult, PromptTrace


class UniDM:
    """Unified Data Manipulation pipeline over a pluggable language model."""

    def __init__(self, llm: LanguageModel, config: UniDMConfig | None = None):
        self.llm = llm
        self.config = config or UniDMConfig()
        self.retriever = ContextRetriever(self.config)
        self.parser = ContextParser(self.config)
        self.prompt_builder = TargetPromptBuilder(self.config)

    # ------------------------------------------------------------------ running
    def run(self, task: Task) -> ManipulationResult:
        """Solve one task instance (Algorithm 1), one LLM call at a time."""
        trace = PromptTrace()
        usage_before = self.llm.usage.snapshot()
        context = drive(self.plan(task, trace), self.llm)
        usage = self.llm.usage.delta_since(usage_before)
        return self.finish(task, context, trace, usage)

    # ------------------------------------------------------------------ the plan
    # Algorithm 1 as one sans-IO plan (see repro.core.plan).  ``run`` drives it
    # synchronously and the serving engine drives it through its micro-batcher;
    # every step is a pure function of (config.seed, task) given its
    # completions, so a task issues the same prompts on either path.
    def plan(self, task: Task, trace: PromptTrace) -> Plan:
        """Every LLM request of ``task`` in Algorithm 1 order, the answer last.

        Context retrieval (``p_rm`` / ``p_ri``), context parsing (``p_dp``),
        target-prompt construction (``p_cq``), then ``LLMRequest(p_as,
        "answer")``.  The plan returns the assembled context; the answer text
        lands in ``trace.answer``.
        """
        pre = yield from self._plan_retrieval(task, trace)
        context = yield from self._plan_context(pre, trace)
        target = yield from self.prompt_builder.plan(task, context.text, trace)
        trace.answer = yield LLMRequest(target.text, "answer")
        return context

    def _plan_retrieval(self, task: Task, trace: PromptTrace) -> Plan:
        """Context retrieval (``p_rm`` / ``p_ri``).

        The candidate pool (and the random-context ablations) draw from a
        generator derived here from ``config.seed`` and the task's own
        content — type, query ``Q`` and target record ids — so a task's
        prompts do not depend on which tasks ran before it, or where.
        """
        # Context supplied by the task itself (transformation examples,
        # documents for information extraction) bypasses retrieval.
        raw_text = task.context_text()
        if raw_text is not None:
            return _PreContext(raw_text=raw_text)
        rows = task.context_rows()
        if rows is not None:
            return _PreContext(rows=rows)
        key = "\x1f".join(
            [task.task_type.name, task.query()]
            + [str(record.record_id) for record in task.target_records()]
        )
        rng = make_rng(self.config.seed, key)
        retrieved = yield from self.retriever.plan(task, rng, trace)
        return _PreContext(retrieved=retrieved)

    def _plan_context(self, pre: "_PreContext", trace: PromptTrace) -> Plan:
        """Context data parsing (``p_dp``)."""
        if pre.raw_text is not None:
            parsed = self.parser.parse_raw_text(pre.raw_text, trace)
            return _Context(text=parsed.text, attributes=[])
        if pre.rows is not None:
            parsed = yield from self.parser.plan_rows(pre.rows, trace)
            return _Context(text=parsed.text, attributes=[])
        retrieved = pre.retrieved
        if retrieved is None or retrieved.is_empty:
            attributes = [] if retrieved is None else retrieved.attributes
            return _Context(text="", attributes=attributes)
        parsed = yield from self.parser.plan_records(
            retrieved.records, retrieved.attributes, trace
        )
        return _Context(text=parsed.text, attributes=retrieved.attributes)

    def finish(
        self,
        task: Task,
        context: "_Context",
        trace: PromptTrace,
        usage: UsageDelta,
    ) -> ManipulationResult:
        """Assemble the result record once :meth:`plan` has run to completion."""
        answer_text = trace.answer or ""
        return ManipulationResult(
            task_type=task.task_type,
            raw_answer=answer_text,
            value=task.parse_answer(answer_text),
            query=task.query(),
            context_text=context.text,
            selected_attributes=list(getattr(context, "attributes", [])) or [],
            trace=trace,
            usage=usage,
        )


class _Context:
    """Internal carrier of the assembled context."""

    __slots__ = ("text", "attributes")

    def __init__(self, text: str, attributes: Sequence[str]):
        self.text = text
        self.attributes = list(attributes)


@dataclass
class _PreContext:
    """Outcome of the retrieval stage, before context parsing.

    Exactly one of the three fields is populated: raw document text, task-
    supplied rows, or automatically retrieved records.
    """

    raw_text: str | None = None
    rows: list[list[tuple[str, str]]] | None = None
    retrieved: RetrievedContext | None = None


def solve(
    task: Task,
    llm: LanguageModel,
    config: UniDMConfig | None = None,
) -> ManipulationResult:
    """One-shot convenience wrapper: build a pipeline and run a single task."""
    return UniDM(llm, config).run(task)


__all__ = ["UniDM", "solve", "ParsedContext"]
