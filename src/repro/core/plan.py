"""Sans-IO LLM call plans.

Algorithm 1 interleaves pure computation (sampling, parsing completions,
assembling prompts) with LLM calls.  To let the exact same logic run both
synchronously (one task at a time) and inside the serving engine (many tasks
with micro-batched LLM calls), each pipeline component expresses its work as
a *plan*: a generator that yields :class:`LLMRequest` objects and receives
the completion text back via ``send()``.  A component holds no model, only
its config; one of two drivers decides how requests are actually executed:

* :func:`drive` executes a plan against a :class:`~repro.llm.base.LanguageModel`
  synchronously (the ``UniDM.run`` path);
* the serving engine's :class:`~repro.serving.batcher.MicroBatcher` steps
  many plans at once: it sends each its completion when a batched call lands
  (or at once, for a cached prompt) and queues the next request it yields,
  with one batch in flight per batcher.

Algorithm 1 is written once, as :meth:`repro.core.pipeline.UniDM.plan`; both
drivers walk that one generator, so the serving engine is equivalent to the
sequential pipeline by construction.
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
