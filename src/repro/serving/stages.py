"""Awaitable execution of one task through the pipeline's plan stages.

:func:`execute_task` is the async twin of :meth:`repro.core.pipeline.UniDM.run`:
it walks the *same* sans-IO plan generators (see :mod:`repro.core.plan`) the
sync path uses, but satisfies each :class:`~repro.core.plan.LLMRequest` by
awaiting the micro-batcher, so prompts from concurrent tasks — whatever
stage each is at — coalesce into batched LLM calls.

Determinism: every plan stage is a pure function of ``(config.seed, task)``
given its completions (the retrieval stage derives its generator from the
task, see :meth:`~repro.core.pipeline.UniDM.plan_retrieval`), so a task issues
the same prompts here as in a sequential ``run``, however tasks interleave.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Awaitable, Callable

from ..core.plan import LLMRequest, Plan
from ..core.types import ManipulationResult, PromptTrace
from ..llm.base import UsageTracker
from .batcher import MicroBatcher

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import UniDM
    from ..core.tasks.base import Task


async def drive_async(
    plan: Plan, call: Callable[[LLMRequest], Awaitable[str]]
) -> Any:
    """Run a plan to completion, satisfying each request via ``await call(...)``."""
    try:
        request = next(plan)
        while True:
            text = await call(request)
            request = plan.send(text)
    except StopIteration as stop:
        return stop.value


async def execute_task(
    pipeline: "UniDM",
    task: "Task",
    batcher: MicroBatcher,
) -> ManipulationResult:
    """Run Algorithm 1 for one task with micro-batched LLM calls.

    Per-task usage is accumulated on a private tracker (the shared tracker of
    ``pipeline.llm`` keeps aggregating inside ``complete_batch``), because
    with interleaved tasks the sequential snapshot/delta trick would attribute
    other tasks' tokens to this query.
    """
    trace = PromptTrace()
    tracker = UsageTracker()

    async def call(request: LLMRequest) -> str:
        completion = await batcher.submit(request.prompt, request.kind)
        tracker.record(completion, kind=request.kind)
        return completion.text

    pre = await drive_async(pipeline.plan_retrieval(task, trace), call)
    context = await drive_async(pipeline.plan_context(pre, trace), call)
    target = await drive_async(pipeline.plan_target(task, context.text, trace), call)
    answer_text = await call(LLMRequest(target.text, "answer"))
    trace.answer = answer_text

    usage = tracker.delta_since((0, 0, 0))
    return pipeline.finish(task, context, answer_text, trace, usage)
