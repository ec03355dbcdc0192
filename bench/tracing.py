"""Spans recorded from outside the program: wrappers the traced server composes.

Nothing in ``src/`` is patched or switched.  The traced server is assembled
from the same public constructors as the untraced one, with a timing wrapper
at each layer boundary:

========================  ====================================================
span                      wrapper
========================  ====================================================
``handler``               :func:`traced_handler` around the batch handler given
                          to ``start_line_server``
``worker.submit``         :class:`TracedWorker` via ``Router.local``'s
                          ``worker_decorator`` (cluster only)
``engine.run``            :class:`TimedEngine`, an ``ExecutionEngine`` subclass
``llm.above``             :class:`TracedLLM` between the pipeline and
                          ``CachedLLM``
``pcache.get|put|route``  :class:`TracedCacheBackend` passed as
                          ``CachedLLM(persistent=...)``
``llm.below``             :class:`TracedLLM` between ``CachedLLM`` and the stub
========================  ====================================================

A span is a dict ``{id, name, parent, start, end, ...}`` on
``CLOCK_MONOTONIC`` (system-wide on Linux, so the load process's own
``client.call`` spans share the time base), kept in memory and written as
JSON lines when the server exits.  ``parent`` is the enclosing span of the
same thread; where a layer boundary is also a thread hop the wrapper records
what :mod:`bench.analysis` needs to find the parent afterwards (``scope``,
the serving stack a span belongs to, and ``trace``, the wire trace id of the
first request it carries).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.cluster.workers import Worker
from repro.llm.base import Completion, LanguageModel
from repro.serving.engine import EngineConfig, ExecutionEngine
from repro.tenancy import DEFAULT_TENANT

clock = time.monotonic


class Tracer:
    """An in-memory span log with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(
        self, name: str, fallback_parent: int | None = None, **attrs: Any
    ) -> Iterator[dict[str, Any]]:
        """Time the block.  The parent is the span open on this thread, else
        ``fallback_parent`` (what the wrapper knows across a thread hop)."""
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else fallback_parent,
            **attrs,
            "start": clock(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = clock()
            stack.pop()
            self.spans.append(record)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in list(self.spans):
                out.write(json.dumps(record) + "\n")


def load_spans(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


class Scope:
    """What the wrappers of one serving stack share: its name, and the
    ``engine.run`` span open in it — the parent of LLM spans, which run on
    the engine's own thread pool."""

    def __init__(self, name: str):
        self.name = name
        self.run: dict[str, Any] | None = None


def _first_trace(requests: Sequence[Any]) -> str | None:
    for request in requests:
        if isinstance(request, dict) and request.get("trace"):
            return str(request["trace"])
    return None


def traced_handler(
    handle_batch: Callable[[list], list], tracer: Tracer
) -> Callable[[list], list]:
    """The batch handler, timed once per invocation by the transport."""

    def handler(group: list) -> list:
        with tracer.span("handler", trace=_first_trace(group), requests=len(group)):
            return handle_batch(group)

    return handler


class TimedEngine(ExecutionEngine):
    """An execution engine whose ``run`` is a span."""

    def __init__(self, config: EngineConfig, tracer: Tracer, scope: Scope):
        super().__init__(config)
        self._tracer = tracer
        self._scope = scope

    def run(self, pipeline, tasks):
        task_list = list(tasks)
        with self._tracer.span(
            "engine.run", scope=self._scope.name, tasks=len(task_list)
        ) as record:
            self._scope.run = record
            return super().run(pipeline, task_list)


class TracedLLM(LanguageModel):
    """A language model that times every call into ``inner``."""

    def __init__(self, inner: LanguageModel, tracer: Tracer, span_name: str, scope: Scope):
        super().__init__(tokenizer=inner.tokenizer)
        self.inner = inner
        self.name = inner.name
        # One tracker, not a copy: the sequential pipeline reads llm.usage.
        self.usage = inner.usage
        self._tracer = tracer
        self._span_name = span_name
        self._scope = scope

    def _span(self, prompts: int):
        run = self._scope.run
        return self._tracer.span(
            self._span_name,
            fallback_parent=run["id"] if run is not None else None,
            scope=self._scope.name,
            prompts=prompts,
        )

    def _complete_text(self, prompt: str) -> str:
        return self.inner._complete_text(prompt)

    def complete(self, prompt: str, kind: str = "other") -> Completion:
        with self._span(1):
            return self.inner.complete(prompt, kind=kind)

    def complete_batch(self, prompts: Sequence[str], kind: str = "other") -> list[Completion]:
        with self._span(len(prompts)):
            return self.inner.complete_batch(prompts, kind=kind)

    def note_route(self, prompt: str, route: str) -> None:
        note = getattr(self.inner, "note_route", None)
        if note is not None:
            note(prompt, route)

    def __getattr__(self, name: str) -> Any:
        # Cache counters and the shard handle are read off pipeline.llm.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


class TracedCacheBackend:
    """A ``CacheBackend`` that times ``get``/``put``/``note_route``."""

    def __init__(self, inner: Any, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer

    def get(self, prompt: str) -> str | None:
        with self._tracer.span("pcache.get"):
            return self.inner.get(prompt)

    def put(self, prompt: str, text: str) -> None:
        with self._tracer.span("pcache.put"):
            self.inner.put(prompt, text)

    def note_route(self, prompt: str, route: str) -> None:
        with self._tracer.span("pcache.route"):
            self.inner.note_route(prompt, route)

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name: str) -> Any:
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


class TracedWorker(Worker):
    """A cluster worker whose ``submit`` (queue wait included) is a span."""

    def __init__(self, inner: Worker, tracer: Tracer):
        self.inner = inner
        self.worker_id = inner.worker_id
        self._tracer = tracer

    def submit(self, requests, priority=0, *, tenant=DEFAULT_TENANT, weight=1.0):
        with self._tracer.span(
            "worker.submit",
            scope=self.worker_id,
            trace=_first_trace(requests),
            requests=len(requests),
        ):
            return self.inner.submit(requests, priority, tenant=tenant, weight=weight)

    def ping(self) -> bool:
        return self.inner.ping()

    def stats(self):
        return self.inner.stats()

    def close(self) -> None:
        self.inner.close()

    def kill(self) -> None:
        self.inner.kill()

    def shard(self):
        return self.inner.shard()

    def shard_path(self):
        return self.inner.shard_path()
