"""Target prompt construction (Section 4.4).

Every task describable by the unified framework can be rewritten as a cloze
question.  The builder assembles the claim (task description ``T``, parsed
context ``C'``, target query ``Q``), embeds it in the few-shot prompt ``p_cq``
together with the demonstration bank of Appendix A, and asks the LLM to emit
the cloze question ``p_as`` that is then used as the final answer prompt.

When the component is disabled (ablation rows of Tables 8-10) the claim is
concatenated directly into a naive answer prompt instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..prompting.templates import (
    CLOZE_CONSTRUCTION,
    DIRECT_ANSWER,
    render_demonstrations,
)
from .config import UniDMConfig
from .plan import LLMRequest, Plan
from .tasks.base import Task
from .types import PromptTrace


@dataclass
class TargetPrompt:
    """The final answer prompt and how it was produced."""

    text: str
    is_cloze: bool


class TargetPromptBuilder:
    """Builds the final answer prompt for a task instance."""

    def __init__(self, config: UniDMConfig):
        self.config = config

    def plan(
        self,
        task: Task,
        context_text: str,
        trace: PromptTrace | None = None,
    ) -> Plan:
        if not self.config.use_cloze_prompt:
            prompt = DIRECT_ANSWER.render(
                task=task.short_name,
                context=context_text,
                query=task.query(),
            )
            if trace is not None:
                trace.target_prompt = prompt
            return TargetPrompt(text=prompt, is_cloze=False)

        construction_prompt = CLOZE_CONSTRUCTION.render(
            demonstrations=render_demonstrations(),
            task_description=task.description,
            context=context_text,
            query=task.query(),
        )
        completion_text = yield LLMRequest(construction_prompt, "p_cq")
        cloze = completion_text.strip()
        if trace is not None:
            trace.cloze_construction = construction_prompt
            trace.target_prompt = cloze
        if not cloze:
            # Fall back to the direct prompt if the LLM returned nothing.
            fallback = DIRECT_ANSWER.render(
                task=task.short_name, context=context_text, query=task.query()
            )
            return TargetPrompt(text=fallback, is_cloze=False)
        return TargetPrompt(text=cloze, is_cloze=True)
