"""Direct probes: one layer's public functions, timed on the workload's inputs.

Where the traced window cannot isolate a layer (a function that runs inside
another span, or on the load side), the probe calls it directly over the
specs the workload really sends.  Each probe makes ``ROUNDS`` passes over
its sample and reports the median pass, divided by the items in it.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import threading
import time
from typing import Any, Callable, Sequence

from repro.api import (
    PipelineSpec,
    TaskResult,
    TaskSpec,
    decode_response,
    encode_request,
    parse_request,
)
from repro.cluster.hashing import HashRing
from repro.core.pipeline import UniDM
from repro.flow.executor import FlowExecutor
from repro.flow.planner import spec_key
from repro.serving.cache import PersistentCache
from repro.serving.engine import EngineConfig, ExecutionEngine
from repro.serving.service import ServingService
from repro.serving.transport import WireConnection

from .stub import ApiStubLLM
from .wire import serve_wire
from .workloads import CLUSTER_WORKERS, ENGINE_WORKERS, MAX_BATCH_SIZE, encoded_requests

ROUNDS = 5


def _median_pass(run: Callable[[], Any], items: int) -> float:
    """Median seconds per item over ``ROUNDS`` passes of ``run``."""
    passes = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        run()
        passes.append(time.perf_counter() - started)
    return statistics.median(passes) / max(items, 1)


def _work_items(specs: Sequence[TaskSpec]) -> list[TaskSpec]:
    """Task specs as the engine sees them: the first plan becomes its work items."""
    if not isinstance(specs[0], PipelineSpec):
        return list(specs)
    table = specs[0].to_table()
    return [
        item.spec
        for operator in specs[0].to_pipeline().stages
        for item in operator.compile(table)
    ]


def _materialise(spec: TaskSpec) -> None:
    if isinstance(spec, PipelineSpec):
        spec.to_pipeline()
        spec.to_table()
    else:
        spec.to_task()


def api_probes(specs: Sequence[TaskSpec]) -> dict[str, float]:
    """``encode_request`` / ``parse_request`` / ``to_task`` / ``decode_response``.

    Per wire request: a ``PipelineSpec`` is one request.
    """
    n = len(specs)
    requests = [encode_request(spec, i, trace="0" * 16) for i, spec in enumerate(specs)]
    service = ServingService(UniDM(ApiStubLLM()), _engine())
    responses = service.handle_batch(requests)
    parsed = [parse_request(request) for request in requests]
    return {
        "api.encode_us_per_spec": 1e6 * _median_pass(
            lambda: [encode_request(spec, i, trace="0" * 16) for i, spec in enumerate(specs)], n
        ),
        "api.parse_us_per_spec": 1e6 * _median_pass(
            lambda: [parse_request(request) for request in requests], n
        ),
        "api.to_task_us_per_spec": 1e6 * _median_pass(
            lambda: [_materialise(entry.spec) for entry in parsed], n
        ),
        "api.decode_us_per_spec": 1e6 * _median_pass(
            lambda: [decode_response(response) for response in responses], n
        ),
        "api.request_bytes_per_spec": sum(map(len, encoded_requests(specs))) / max(n, 1),
    }


def _engine() -> ExecutionEngine:
    return ExecutionEngine(EngineConfig(max_batch_size=MAX_BATCH_SIZE, workers=ENGINE_WORKERS))


def transport_probe(specs: Sequence[TaskSpec], call_size: int) -> dict[str, float]:
    """The workload's real payloads over one negotiated connection to an echo."""
    requests = [encode_request(spec, i, trace="0" * 16) for i, spec in enumerate(specs)]
    calls = [requests[i : i + call_size] for i in range(0, len(requests), call_size)]

    def echo(group: list) -> list:
        return [{"v": 2, "id": request.get("id"), "ok": True, "result": {}} for request in group]

    ready = threading.Event()
    box: dict[str, Any] = {}

    def started(port: int, request_stop: Callable[[], None]) -> None:
        box.update(port=port, stop=request_stop)
        ready.set()

    thread = threading.Thread(
        target=asyncio.run, args=(serve_wire(echo, started),), name="bench-echo"
    )
    thread.start()
    try:
        if not ready.wait(timeout=10):
            raise RuntimeError("echo server did not start")
        conn = WireConnection.open("127.0.0.1", box["port"])
        try:
            per_request = _median_pass(
                lambda: [conn.send_batch(call) for call in calls], len(requests)
            )
        finally:
            conn.close()
    finally:
        if ready.is_set():
            box["stop"]()
        thread.join(timeout=10)
    return {"transport.echo_us_per_request": 1e6 * per_request}


def engine_probe(items: Sequence[TaskSpec]) -> dict[str, float]:
    """One engine run of one task over an instant backend: the fixed cost."""
    spec = next(item for item in items if item.type == "transformation")
    pipeline, engine = UniDM(ApiStubLLM()), _engine()
    runs = []
    for _ in range(ROUNDS * 5):
        task = spec.to_task()
        started = time.perf_counter()
        engine.run(pipeline, [task])
        runs.append(time.perf_counter() - started)
    return {"engine.single_task_run_us": 1e6 * statistics.median(runs)}


def core_probe(items: Sequence[TaskSpec]) -> dict[str, float]:
    """Sequential ``UniDM.run`` over the sample: plans, prompts, serialization."""
    stub = ApiStubLLM()
    pipeline = UniDM(stub)
    tasks = [item.to_task() for item in items]
    per_spec = _median_pass(lambda: [pipeline.run(task) for task in tasks], len(tasks))
    return {
        "core.run_us_per_spec": 1e6 * per_spec,
        "core.prompt_chars_per_spec": stub.counters()["prompt_chars"] / (ROUNDS * len(tasks)),
    }


def router_probe(items: Sequence[TaskSpec]) -> dict[str, float]:
    """``spec_key`` plus the ring lookup, per routed spec."""
    ring = HashRing([f"worker-{index:02d}" for index in range(CLUSTER_WORKERS)])
    return {
        "router.route_us_per_spec": 1e6 * _median_pass(
            lambda: [ring.node_for(spec_key(item)) for item in items], len(items)
        )
    }


def flow_probe(specs: Sequence[TaskSpec]) -> dict[str, float]:
    """Compile, dedup and apply one plan with answers that cost nothing."""
    plans = [spec for spec in specs if isinstance(spec, PipelineSpec)]
    if not plans:
        return {"flow.plan_ms_per_table": 0.0}

    def instant(batch: Sequence[TaskSpec]) -> list[TaskResult]:
        return [TaskResult(answer="w0") for _ in batch]

    def run() -> None:
        for spec in plans:
            FlowExecutor(instant).run(spec.to_pipeline(), spec.to_table())

    return {"flow.plan_ms_per_table": 1e3 * _median_pass(run, len(plans))}


def cache_dir_probe(cache_dir: str | None) -> dict[str, float]:
    """Open the directory the server left behind; weigh it."""
    if cache_dir is None or not os.path.isdir(cache_dir):
        return {"pcache.open_s": 0.0, "pcache.disk_bytes_per_entry": 0.0}
    opens = []
    for _ in range(3):
        started = time.perf_counter()
        cache = PersistentCache(cache_dir)
        opens.append(time.perf_counter() - started)
    disk = sum(
        os.path.getsize(os.path.join(cache_dir, name)) for name in os.listdir(cache_dir)
    )
    return {
        "pcache.open_s": statistics.median(opens),
        "pcache.disk_bytes_per_entry": disk / max(len(cache), 1),
    }


def run_probes(specs: Sequence[TaskSpec], call_size: int) -> dict[str, float]:
    """Every probe that needs only the workload's specs."""
    metrics: dict[str, float] = {}
    metrics.update(api_probes(specs))
    metrics.update(transport_probe(specs, call_size))
    items = _work_items(specs)
    metrics.update(engine_probe(items))
    metrics.update(core_probe(items))
    metrics.update(router_probe(items))
    metrics.update(flow_probe(specs))
    return metrics
