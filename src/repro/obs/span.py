"""Hierarchical spans nested under the :class:`~repro.obs.trace.Trace` id.

A span is one timed unit of work — ``client.submit``, ``router.dispatch``,
``engine.task``, ``llm.call`` — carrying its trace id, its own span id, and
the span id of its parent.  In-process nesting rides the same contextvar
mechanism as :class:`~repro.obs.trace.Trace`; cross-process nesting rides
the v2 wire envelope (optional ``"span"`` key = parent span id), so a
cluster request yields one coherent tree spanning client, router, and
subprocess workers.

Design notes:

* **Clock** — all timestamps are ``time.monotonic()``.  On Linux that is
  ``CLOCK_MONOTONIC``, which is system-wide per boot, so offsets computed
  across local processes line up in one waterfall.  Never the wall clock
  here (enforced by ``scripts/check_monotonic.py``).
* **Ids** — ``new_span_id()`` is ``"<pid:x>-<counter:x>"``: unique across
  the local process tree without an entropy syscall per span, which keeps
  the instrumentation overhead inside the ≤10 % bench budget.
* **Sampling** — ``Span.begin`` consults the default event log's head-based
  verdict for the trace; an unsampled trace produces *no* span objects at
  all (in any process — the verdict is deterministic by id), so disabled
  and sampled-out paths cost one dict lookup and one hash.  The verdict is
  decided once and carried by the span itself: a span exists only if its
  trace was sampled, so ``finish`` records it without asking again, and a
  child begun in the same trace as its live parent (the bound span, or
  :meth:`Span.child`) is sampled because the parent is.
* **Kill switch** — ``set_tracing(False)`` (or ``REPRO_TRACING=0``) makes
  every ``begin``/``span`` a no-op returning ``None``; instrumentation
  sites must tolerate a ``None`` span.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.events import get_default_event_log
from repro.obs.trace import Trace, new_trace_id

ENV_TRACING = "REPRO_TRACING"

_enabled = os.environ.get(ENV_TRACING, "1").strip().lower() not in {"0", "false", "off"}
_counter = itertools.count(1)
_current_span: ContextVar["Span | None"] = ContextVar("repro_span", default=None)

# The pid prefix of span ids is cached (one getpid syscall + format per
# process instead of per span); a forked child re-stamps it so its ids stay
# distinct from the parent's.
_pid_prefix = f"{os.getpid():x}-"


def _refresh_pid_prefix() -> None:
    global _pid_prefix, _counter
    _pid_prefix = f"{os.getpid():x}-"
    _counter = itertools.count(1)


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_refresh_pid_prefix)


def tracing_enabled() -> bool:
    """Whether span creation is currently on."""
    return _enabled


def set_tracing(enabled: bool) -> None:
    """Flip the process-wide span kill switch (benchmarks, incident response)."""
    global _enabled
    _enabled = bool(enabled)


def new_span_id() -> str:
    """A span id unique across the local process tree (``pid-counter``)."""
    return f"{_pid_prefix}{next(_counter):x}"


@dataclass(slots=True)
class Span:
    """One timed unit of work within a trace.

    Mutable on purpose: ``finish`` stamps the end time and status, then
    emits the completed span to the default event log exactly once.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start: float = 0.0
    end: float | None = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    # ----------------------------------------------------------- context API
    @classmethod
    def current(cls) -> "Span | None":
        """The span bound to the current context, if any."""
        return _current_span.get()

    @classmethod
    def current_id(cls) -> str | None:
        span = _current_span.get()
        return span.span_id if span is not None else None

    @classmethod
    def begin(
        cls,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> "Span | None":
        """Start a span, or return ``None`` when tracing is off/sampled out.

        The parent defaults to the context-bound span (inheriting its trace
        id); the trace defaults to the bound :class:`Trace` or a fresh id.
        Explicit ``trace_id``/``parent_id`` override both — that is how ids
        arriving over the wire re-root a remote subtree.
        """
        if not _enabled:
            return None
        context_parent = _current_span.get()
        if parent_id is None and context_parent is not None:
            parent_id = context_parent.span_id
            if trace_id is None:
                trace_id = context_parent.trace_id
        if trace_id is None:
            trace_id = Trace.current_id() or new_trace_id()
        if (
            context_parent is None or trace_id != context_parent.trace_id
        ) and not get_default_event_log().sampled(trace_id):
            return None
        return cls(
            name,
            trace_id,
            f"{_pid_prefix}{next(_counter):x}",  # new_span_id(), inlined: once per span
            parent_id,
            time.monotonic(),
            attrs=dict(attrs) if attrs else {},
        )

    def child(self, name: str, attrs: dict[str, Any] | None = None) -> "Span | None":
        """Start a span under this one, in its trace (``None`` when tracing
        is off).

        This span exists, so its trace was sampled: the child is too, and no
        verdict is asked for again.
        """
        if not _enabled:
            return None
        return Span(
            name,
            self.trace_id,
            f"{_pid_prefix}{next(_counter):x}",
            self.span_id,
            time.monotonic(),
            attrs=dict(attrs) if attrs else {},
        )

    # ------------------------------------------------------------- lifecycle
    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def finish(self, status: str | None = None, **attrs: Any) -> None:
        """Stamp the end time and emit once; later calls are no-ops.

        The span was admitted by its trace's verdict when it began; the
        event log records it without sampling again.
        """
        if self.end is not None:
            return
        self.end = time.monotonic()
        if status is not None:
            self.status = status
        if attrs:
            self.attrs.update(attrs)
        get_default_event_log().emit_span(self)

    def bound_context(self) -> contextvars.Context:
        """A copy of the current context with this span bound: what runs in
        it (on another thread, say) nests its spans beneath this one."""
        context = contextvars.copy_context()
        context.run(_current_span.set, self)
        return context

    @contextmanager
    def bind(self) -> Iterator["Span"]:
        """Make this span the context parent for nested ``Span.begin`` calls."""
        token = _current_span.set(self)
        try:
            yield self
        finally:
            _current_span.reset(token)


class _SpanContext:
    """Open, bind, and finish a span around a block.

    A hand-rolled context manager rather than ``@contextmanager``: it runs
    once per span on every hot path, and skipping the generator machinery
    (and the nested ``bind()`` generator) roughly halves the per-span cost —
    which is what keeps the traced/untraced benchmark ratio inside its cap.
    """

    __slots__ = ("_name", "_trace_id", "_parent_id", "_attrs", "_span", "_token")

    def __init__(
        self,
        name: str,
        trace_id: str | None,
        parent_id: str | None,
        attrs: dict[str, Any],
    ):
        self._name = name
        self._trace_id = trace_id
        self._parent_id = parent_id
        self._attrs = attrs

    def __enter__(self) -> Span | None:
        current = Span.begin(
            self._name,
            trace_id=self._trace_id,
            parent_id=self._parent_id,
            attrs=self._attrs,
        )
        self._span = current
        self._token = _current_span.set(current) if current is not None else None
        return current

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _current_span.reset(self._token)
        if self._span is not None:
            self._span.finish(status="error" if exc_type is not None else None)
        return False


def span(
    name: str,
    *,
    trace_id: str | None = None,
    parent_id: str | None = None,
    **attrs: Any,
) -> _SpanContext:
    """Context manager timing a block as one span (bound for nesting).

    Yields ``None`` when tracing is disabled or the trace is sampled out —
    callers reading ``sp.span_id`` must guard for that.  An exception
    escaping the block marks the span ``status="error"``.
    """
    return _SpanContext(name, trace_id, parent_id, attrs)


@contextmanager
def remote_span(
    name: str,
    *,
    trace_id: str | None = None,
    parent_id: str | None = None,
    **attrs: Any,
) -> Iterator[Span | None]:
    """A span re-rooted from wire-carried ids (server side of a hop).

    When the envelope carried a trace id, the :class:`Trace` contextvar is
    bound around the span too, so everything nested (engine, batcher, LLM)
    sees the caller's trace rather than minting fresh ids.
    """
    if trace_id is not None:
        with Trace(trace_id).bind():
            with span(name, trace_id=trace_id, parent_id=parent_id, **attrs) as sp:
                yield sp
    else:
        with span(name, parent_id=parent_id, **attrs) as sp:
            yield sp


__all__ = [
    "ENV_TRACING",
    "Span",
    "new_span_id",
    "remote_span",
    "set_tracing",
    "span",
    "tracing_enabled",
]
