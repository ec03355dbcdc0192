"""The program under test, as its own process: ``python -m bench.server CONFIG``.

``CONFIG`` is one JSON object::

    {"mode": "service" | "cluster", "latency": 0.01,
     "cache_dir": null | "<dir>", "trace_out": null | "<spans.jsonl>"}

The server is composed from the repo's public constructors only —
``build_service`` (or ``Router.local`` with ``llm_factory``) behind
``start_line_server`` (:mod:`bench.wire`), engine defaults ``max_batch_size=8, workers=8,
llm_threads=1``, the repo's own tracing left as it is — over the benchmark's
:class:`~bench.stub.ApiStubLLM`.  With ``trace_out`` the same stack is
assembled by hand with the timing wrappers of :mod:`bench.tracing` at each
layer boundary.

Control channel (stdin/stdout, one JSON object per line): the server
announces ``{"event": "ready", "port": ...}``; ``snapshot`` answers the
stub's counters with the process's CPU time and peak RSS; ``stop`` shuts
down, writes the spans and answers ``{"event": "stopped", ...}``.  End of
input means the load side is gone: the server exits without a word, so a
killed benchmark leaves no orphan.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.router import Router
from repro.cluster.workers import Worker
from repro.core.config import UniDMConfig
from repro.core.pipeline import UniDM
from repro.llm.cache import CachedLLM
from repro.serving.cache import PersistentCache
from repro.serving.engine import EngineConfig
from repro.serving.service import ServingService, build_service

from .stub import ApiStubLLM
from .tracing import (
    Scope,
    TimedEngine,
    TracedCacheBackend,
    TracedLLM,
    TracedWorker,
    Tracer,
    clock,
    traced_handler,
)
from .wire import serve_wire
from .workloads import CLUSTER_WORKERS, ENGINE_WORKERS, MAX_BATCH_SIZE

#: Seconds a stopping server may take before it is made to exit.
_EXIT_GRACE = 15.0


@dataclass
class Stack:
    """The assembled server: what the wire calls, and how to tear it down."""

    handler: Callable[[list], list]
    stub: ApiStubLLM
    tracer: Tracer | None
    close: Callable[[], None]


def build_stack(config: dict[str, Any]) -> Stack:
    stub = ApiStubLLM(latency=float(config["latency"]))
    tracer = Tracer() if config.get("trace_out") else None
    cache_dir = config.get("cache_dir")
    if config["mode"] == "cluster":
        router = _build_router(stub, tracer)
        handler, close = router.handle_batch, router.close
    elif tracer is None:
        service = build_service(
            llm=stub, cache_dir=cache_dir, batch_size=MAX_BATCH_SIZE, workers=ENGINE_WORKERS
        )
        handler, close = service.handle_batch, lambda: None
    else:
        # build_service, spelled out so that each layer boundary gets its wrapper.
        scope = Scope("service")
        persistent = PersistentCache(cache_dir) if cache_dir else None
        cached = CachedLLM(
            TracedLLM(stub, tracer, "llm.below", scope),
            persistent=None if persistent is None else TracedCacheBackend(persistent, tracer),
        )
        pipeline = UniDM(
            TracedLLM(cached, tracer, "llm.above", scope), UniDMConfig.full(seed=0)
        )
        engine = TimedEngine(
            EngineConfig(max_batch_size=MAX_BATCH_SIZE, workers=ENGINE_WORKERS), tracer, scope
        )
        handler, close = ServingService(pipeline, engine).handle_batch, lambda: None
    if tracer is not None:
        handler = traced_handler(handler, tracer)
    return Stack(handler, stub, tracer, close)


def _build_router(stub: ApiStubLLM, tracer: Tracer | None) -> Router:
    if tracer is None:
        return Router.local(
            CLUSTER_WORKERS,
            llm_factory=lambda index: stub,
            batch_size=MAX_BATCH_SIZE,
            engine_workers=ENGINE_WORKERS,
        )
    scopes: dict[str, Scope] = {}

    def scope_of(worker_id: str) -> Scope:
        return scopes.setdefault(worker_id, Scope(worker_id))

    def traced_worker(worker: Worker) -> Worker:
        # Router.local has assembled the worker's stack; before it serves a
        # request, swap in the timed engine and the wrapper above CachedLLM —
        # the same assignments Router.local/Client.local make for `config`.
        scope = scope_of(worker.worker_id)
        service = worker.service
        service.engine = TimedEngine(service.engine.config, tracer, scope)
        service.pipeline = UniDM(
            TracedLLM(service.pipeline.llm, tracer, "llm.above", scope),
            service.pipeline.config,
        )
        return TracedWorker(worker, tracer)

    return Router.local(
        CLUSTER_WORKERS,
        llm_factory=lambda index: TracedLLM(
            stub, tracer, "llm.below", scope_of(f"worker-{index:02d}")
        ),
        batch_size=MAX_BATCH_SIZE,
        engine_workers=ENGINE_WORKERS,
        worker_decorator=traced_worker,
    )


# ------------------------------------------------------------ control channel
_say_lock = threading.Lock()


def _say(message: dict[str, Any]) -> None:
    with _say_lock:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()


def _peak_rss_kb() -> int:
    """This process's peak resident set (``VmHWM``).

    Not ``ru_maxrss``: that survives ``exec`` and so starts from the resident
    set of the load process that spawned the server.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _usage() -> dict[str, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "clock": clock(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": _peak_rss_kb(),
    }


def _control_loop(stub: ApiStubLLM, request_stop: Callable[[], None], asked: list) -> None:
    for line in sys.stdin:
        command = line.strip()
        if command == "snapshot":
            _say({"event": "snapshot", "stub": stub.counters(), **_usage()})
        elif command == "stop":
            asked.append(True)
            break
    # "stop", or end of input because the load side died: shut down either way,
    # and do not let a wedged handler keep the process alive.
    watchdog = threading.Timer(_EXIT_GRACE, os._exit, (3,))
    watchdog.daemon = True
    watchdog.start()
    request_stop()


async def _serve(stack: Stack, asked: list) -> None:
    def started(port: int, request_stop: Callable[[], None]) -> None:
        threading.Thread(
            target=_control_loop,
            args=(stack.stub, request_stop, asked),
            name="bench-control",
            daemon=True,
        ).start()
        _say({"event": "ready", "port": port, "pid": os.getpid()})

    try:
        await serve_wire(stack.handler, started)
    finally:
        stack.close()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m bench.server '<json config>'", file=sys.stderr)
        return 2
    config = json.loads(argv[0])
    stack = build_stack(config)
    asked: list = []
    asyncio.run(_serve(stack, asked))
    if asked:
        if stack.tracer is not None:
            stack.tracer.dump(config["trace_out"])
        _say({"event": "stopped", "stub": stack.stub.counters(), **_usage()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
