#!/usr/bin/env python
"""Python calls per spec: the sequential pipeline against the serving engine.

A CPU claim that reads a stopwatch on a shared box drifts with the box; a
count of Python calls does not.  This script counts every Python-level
function call (``"call"`` profile events, not C calls) made while a batch
of specs is solved, on every thread the solve uses, and splits the total
by module:

* ``sequential`` — ``UniDM.run(task)`` for each task, one after another;
* ``engine`` — one ``ExecutionEngine.run(pipeline, tasks)``.

Both paths solve the same tasks behind a ``CachedLLM`` over the prompt-pure
test backend, so both ask exactly the same prompts.  Each path is warmed
first (imports, lazy state, the engine's threads) and then measured on a
cleared cache, so a count is the steady-state cost of a cold batch.  The
profile hook is installed with ``sys.setprofile`` and ``threading.setprofile``
before the engine starts its threads; it counts only while a measured pass
runs.

A count must repeat exactly, so nothing in it may depend on how threads
interleave.  The backend's batched calls take :data:`LATENCY` (a sleep, no
Python calls) and then land only once the engine's loop has gone quiet
(:func:`wait_quiet`), as it has behind a real backend — however long a
loaded box keeps the loop thread from its work; the engine's ``max_wait``
is a second, so the timeout trigger (which fires on the clock, not on the
work) stays out of the count; the count starts and stops once the loop
has gone quiet and the LLM thread waits for its next job, so work done
after a run returned (the loop's last callbacks, the last batch's persist)
lands in that run's count; and the collector is off while a pass is
counted, so no finalizer of earlier garbage lands in it.  Batch sizes and
workers are the defaults.

Usage::

    python scripts/call_budget.py [--rounds N] [--top K]

``--rounds`` is ``make_mixed_specs``'s (4: 28 specs, four of each of the
seven task types).  ``tests/serving/test_request_budget.py`` imports
:func:`measure` and gates the engine's calls a spec against the sequential
path's.
"""

from __future__ import annotations

import argparse
import gc
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tests" / "cluster"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from cluster_testing import FULL_CONFIG, PromptPureLLM, make_mixed_specs  # noqa: E402

from repro.core import UniDM  # noqa: E402
from repro.llm import CachedLLM  # noqa: E402
from repro.serving.engine import EngineConfig, ExecutionEngine  # noqa: E402

#: Seconds a batched backend call takes (see the module docstring).
LATENCY = 0.02


def wait_quiet(loop: Any, ident: int, llm_ident: int | None = None) -> None:
    """Return once ``loop``, run by the thread ``ident``, is blocked in its
    selector with no callback ready: all the work it was given is done —
    and, given ``llm_ident``, once that LLM thread waits for its next job
    (a batch's job persists after it has posted the landing).

    The threads are watched from outside — their top frames, the loop's
    ready queue — so the wait makes no Python call to count, and none on
    the loop.
    """
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        frames = sys._current_frames()
        frame = frames.get(ident)
        llm = frames.get(llm_ident) if llm_ident is not None else None
        if (
            frame is not None
            and frame.f_code.co_name == "select"
            and not loop._ready
            and (llm is None or llm.f_code.co_name == "_work")
        ):
            return
        time.sleep(0.0005)
    raise RuntimeError("the engine's loop did not go quiet within 30 s")


class _Backend(PromptPureLLM):
    """The prompt-pure backend, with batched calls that take ``LATENCY`` and
    land once ``settle`` (the engine's quiet wait, when set) returns."""

    settle: Callable[[], None] | None = None

    def complete_batch(self, prompts: Sequence[str], kind: str = "other") -> list:
        time.sleep(LATENCY)
        if self.settle is not None:
            self.settle()
        return super().complete_batch(prompts, kind=kind)


class _Hook:
    """The profile function: counts ``"call"`` events by module while ``on``."""

    def __init__(self) -> None:
        self.on = False
        self.calls: Counter[str] = Counter()

    def __call__(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call" and self.on:
            self.calls[frame.f_globals.get("__name__", "?")] += 1


@dataclass(frozen=True)
class Budget:
    """Calls of one measured pass: the total and the split by module."""

    specs: int
    by_module: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.by_module.values())

    @property
    def per_spec(self) -> float:
        return self.total / self.specs


def _count(
    solve: Callable[[list], Any],
    specs: Sequence[Any],
    llm: CachedLLM,
    hook: _Hook,
    settle: Callable[[], None] | None = None,
) -> Budget:
    """Warm ``solve`` once, clear the cache, and count a second pass;
    ``settle``, if any, returns once the work a pass left behind is done.

    The collector is run before the counted pass and off during it: which
    earlier garbage it finalizes inside the pass (an old loop, a dead
    thread's weak references) depends on how threads interleaved, not on
    the pass."""
    solve([spec.to_task() for spec in specs])
    llm.clear()
    tasks = [spec.to_task() for spec in specs]
    if settle is not None:
        settle()  # the warm pass's last loop callbacks run uncounted
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    hook.calls.clear()
    hook.on = True
    try:
        solve(tasks)
        if settle is not None:
            settle()  # this pass's last loop callbacks are counted
    finally:
        hook.on = False
        if collecting:
            gc.enable()
    return Budget(len(specs), dict(hook.calls))


def measure(specs: Sequence[Any] | None = None) -> dict[str, Budget]:
    """``{"sequential": Budget, "engine": Budget}`` for one batch of ``specs``
    (default ``make_mixed_specs(4)``)."""
    specs = list(make_mixed_specs(4) if specs is None else specs)
    hook = _Hook()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        llm = CachedLLM(_Backend())
        pipeline = UniDM(llm, FULL_CONFIG)
        sequential = _count(lambda tasks: [pipeline.run(t) for t in tasks], specs, llm, hook)

        backend = _Backend()
        llm = CachedLLM(backend)
        pipeline = UniDM(llm, FULL_CONFIG)
        engine = ExecutionEngine(EngineConfig(max_wait=1.0))  # threads start under the hook
        try:
            resident = engine._started()
            backend.settle = partial(wait_quiet, resident._loop, resident.thread.ident)
            drained = partial(backend.settle, llm_ident=resident._executor._thread.ident)
            batched = _count(lambda tasks: engine.run(pipeline, tasks), specs, llm, hook, drained)
        finally:
            engine.close()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]
    return {"sequential": sequential, "engine": batched}


def _report(budgets: dict[str, Budget], top: int) -> str:
    sequential, engine = budgets["sequential"], budgets["engine"]
    lines = [
        f"specs: {sequential.specs}",
        f"sequential: {sequential.per_spec:.1f} calls a spec",
        f"engine:     {engine.per_spec:.1f} calls a spec "
        f"({engine.per_spec - sequential.per_spec:+.1f})",
        "",
        f"{'module':<32} {'sequential':>10} {'engine':>10} {'delta':>8}   (calls a spec)",
    ]
    modules = set(sequential.by_module) | set(engine.by_module)

    def per_spec(budget: Budget, module: str) -> float:
        return budget.by_module.get(module, 0) / budget.specs

    ranked = sorted(
        modules,
        key=lambda m: -(per_spec(engine, m) + per_spec(sequential, m)),
    )
    for module in ranked[:top]:
        s, e = per_spec(sequential, module), per_spec(engine, module)
        lines.append(f"{module:<32} {s:>10.1f} {e:>10.1f} {e - s:>+8.1f}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=4, help="make_mixed_specs rounds")
    parser.add_argument("--top", type=int, default=25, help="modules listed")
    args = parser.parse_args(argv)
    print(_report(measure(make_mixed_specs(args.rounds)), args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
