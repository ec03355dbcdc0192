"""Sans-IO LLM call plans.

Algorithm 1 interleaves pure computation (sampling, parsing completions,
assembling prompts) with LLM calls.  To let the exact same logic run both
synchronously (one task at a time) and inside the async serving engine (many
tasks with micro-batched LLM calls), each pipeline component expresses its
work as a *plan*: a generator that yields :class:`LLMRequest` objects and
receives the completion text back via ``send()``.  The component stays free of
I/O concerns; a driver decides how requests are actually executed:

* :func:`drive` executes a plan against a :class:`~repro.llm.base.LanguageModel`
  synchronously (the classic ``UniDM.run`` path);
* :func:`repro.serving.stages.drive_async` awaits each request through the
  micro-batcher, which coalesces requests of any kinds across in-flight tasks.

Because both drivers walk the identical generator code, the serving engine is
equivalent to the sequential pipeline by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..llm.base import LanguageModel

#: A plan yields LLMRequests, receives completion texts, and returns its result.
Plan = Generator["LLMRequest", str, Any]


@dataclass(frozen=True)
class LLMRequest:
    """One LLM call a plan wants executed.

    ``kind`` is the accounting label (``p_rm``, ``p_ri``, ``p_dp``, ``p_cq``,
    ``answer``); it never selects behaviour — the micro-batcher coalesces
    prompts of different kinds into one batched call and counts each under its own.
    """

    prompt: str
    kind: str = "other"


def drive(plan: Plan, llm: LanguageModel) -> Any:
    """Run ``plan`` to completion against a synchronous language model."""
    try:
        request = next(plan)
        while True:
            completion = llm.complete(request.prompt, kind=request.kind)
            request = plan.send(completion.text)
    except StopIteration as stop:
        return stop.value


__all__ = ["LLMRequest", "Plan", "drive"]
