"""The load side: start the server, drive it, check it, measure it.

One process, ``CLIENTS`` threads, one ``Client.remote`` connection each, in
a closed loop: the callers of ``submit``/``submit_many`` are jobs and
notebooks that wait for the reply before they send the next request.

A sub-run is: set-up (generate specs, compute the oracle, fill the cache for
``replay``, start the server, first answered request) -> warm-up (checked,
not counted) -> one fixed window (calls in flight at the deadline finish and
count).  End-to-end metrics are medians over three sub-runs on untraced
servers; the per-layer metrics come from one traced server
(:mod:`bench.tracing`), read next to a shorter untraced reference window so
the cost of tracing itself is a number.
"""

from __future__ import annotations

import json
import math
import os
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import ApiError, Client, TransformationSpec

from . import ROOT, SRC
from .analysis import SpanForest, traced_metrics
from .model import ceiling
from .placement import Placement
from .probes import cache_dir_probe, run_probes
from .registry import END_TO_END, FAILED_SHARE, PER_LAYER
from .tracing import clock, load_spans
from .workloads import (
    CLIENTS,
    CLUSTER_WORKERS,
    LLM_THREADS,
    NO_ORACLE,
    CallPlan,
    Workload,
    build_oracle,
    check_result,
    specs_in,
)

#: Sub-runs (set-up, warm-up, window) per untraced run; metrics are their medians.
SETUP_REPEATS = 3
#: Seconds the server may take to announce its port, and to answer a command.
_START_TIMEOUT = 60.0
_REPLY_TIMEOUT = 60.0
#: Share of ``--seconds`` the traced run spends on its untraced reference.
_REFERENCE_SHARE = 0.5

#: Per-spec counts: pooled over the sub-runs, where timings take the median.
_POOLED = ("llm_calls_per_spec", "llm_round_trips_per_spec", "billed_tokens_per_spec")

Log = Callable[[str], None]


# ---------------------------------------------------------------- the server
class ServerProcess:
    """``python -m bench.server`` and its control channel."""

    def __init__(self, config: dict[str, Any], log: Log):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        path = [str(SRC), str(ROOT), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
        # From its birth to kill(): the server on one quiet CPU, this process
        # on the others (bench/placement.py).
        self.placement = Placement()
        self.placement.settle()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "bench.server", json.dumps(config)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                cwd=str(ROOT),
                env=env,
                text=True,
            )
        except BaseException:
            self.placement.stop()
            raise
        self._lines: queue.Queue = queue.Queue()
        self._pump_thread = threading.Thread(target=self._pump, name="bench-pump", daemon=True)
        self._pump_thread.start()
        try:
            self.port = int(self._expect("ready", _START_TIMEOUT)["port"])
            self.placement.start(self.proc.pid)
        except BaseException:
            self.kill()
            raise
        log(f"server pid={self.proc.pid} port={self.port}")

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _expect(self, event: str, timeout: float) -> dict[str, Any]:
        deadline = clock() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - clock(), 0.0))
            except queue.Empty:
                raise RuntimeError(f"server did not answer {event!r} within {timeout:g}s") from None
            if line is None:
                raise RuntimeError(
                    f"server exited (code {self.proc.wait()}) before answering {event!r}"
                )
            message = json.loads(line)
            if message.get("event") == event:
                return message

    def _command(self, command: str, event: str) -> dict[str, Any]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._expect(event, _REPLY_TIMEOUT)

    def snapshot(self) -> dict[str, Any]:
        return self._command("snapshot", "snapshot")

    def stop(self) -> dict[str, Any]:
        """Shut the server down in order and return its last word."""
        try:
            final = self._command("stop", "stopped")
            self.proc.wait(timeout=_REPLY_TIMEOUT)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the process is gone and reaped (idempotent)."""
        self.placement.stop()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._pump_thread.join(timeout=5.0)


def _server_config(workload: Workload, cache_dir: str | None, trace_out: str | None, latency=None):
    return {
        "mode": workload.mode,
        "latency": workload.latency if latency is None else latency,
        "cache_dir": cache_dir,
        "trace_out": trace_out,
    }


# ------------------------------------------------------------- the load loop
#: What a plan's report adds up to over a window (``rows`` is its ``rows_in``).
_FLOW_KEYS = ("specs", "submitted", "waves", "rows")


@dataclass
class Window:
    """What one timed window saw."""

    wall: float = 0.0
    calls: list[dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    specs: int = 0
    client_cpu: float = 0.0
    before: dict[str, Any] = field(default_factory=dict)
    after: dict[str, Any] = field(default_factory=dict)
    flow: dict[str, int] = field(default_factory=lambda: dict.fromkeys(_FLOW_KEYS, 0))
    #: Guards every field above while the client threads add their calls.
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def ok_calls(self) -> list[dict[str, Any]]:
        return [call for call in self.calls if not call["failed"]]

    def delta(self, counter: str) -> float:
        return self.after["stub"][counter] - self.before["stub"][counter]

    @property
    def specs_per_s(self) -> float:
        return self.specs / self.wall if self.wall else 0.0


class _ClientLoop:
    """One client's closed loop; remembers how many ids its client has used."""

    def __init__(self, index: int, port: int, plan: CallPlan, oracle: dict[int, Any]):
        self.index = index
        self.client = Client.remote("127.0.0.1", port)
        self.plan = plan
        self.oracle = oracle
        self.next_call = 0
        self._ids_used = 0

    def call(self, window: Window | None) -> None:
        """One ``submit``/``submit_many``, checked; recorded when timed."""
        indices = self.plan.indices(self.index, self.next_call)
        specs = [self.plan.spec(i) for i in indices]
        first_id, self._ids_used = self._ids_used, self._ids_used + len(specs)
        name = f"c{self.index}-{self.next_call}"
        self.next_call += 1
        started = clock()
        try:
            if len(specs) == 1:
                results = [self.client.submit(specs[0])]
            else:
                results = self.client.submit_many(specs)
            ended = clock()
            problems = [
                check_result(spec, result, first_id + position, self.oracle.get(i, NO_ORACLE))
                for position, (i, spec, result) in enumerate(zip(indices, specs, results))
            ]
        except (ApiError, OSError) as exc:
            # An error response to submit(), or the transport gave up: every
            # spec of the call failed.
            ended = clock()
            results = []
            problems = [f"{type(exc).__name__}: {exc}"] * len(specs)
        failures = [problem for problem in problems if problem is not None]
        if window is None:
            if failures:
                raise RuntimeError(f"warm-up call {name} failed: {failures[0]}")
            return
        record = {
            "id": name,
            "name": "client.call",
            "parent": None,
            "start": started,
            "end": ended,
            "traces": [r.trace_id for r in results if r.trace_id],
            "requests": len(specs),
            "failed": len(failures),
        }
        done = 0
        flow = dict.fromkeys(_FLOW_KEYS, 0)
        for spec, result, problem in zip(specs, results, problems):
            if problem is not None:
                continue
            done += specs_in(spec, result)
            if self.plan.workload.pipelines:
                report = result.answer["report"]
                for key in ("specs", "submitted", "waves"):
                    flow[key] += report[key]
                flow["rows"] += report["rows_in"]
        with window.lock:
            window.calls.append(record)
            window.attempted += len(specs)
            window.failed += len(failures)
            window.failures.extend(failures[:3])
            window.specs += done
            for key, value in flow.items():
                window.flow[key] += value


def _run_threads(loops: list[_ClientLoop], body: Callable[[_ClientLoop], None]) -> float:
    """Run ``body`` on every loop at once; returns when the threads started."""
    barrier = threading.Barrier(len(loops) + 1)
    errors: list[BaseException] = []

    def target(loop: _ClientLoop) -> None:
        barrier.wait()
        try:
            body(loop)
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=target, args=(loop,), name=f"bench-client-{loop.index}")
        for loop in loops
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = clock()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return started


def warm_up(loops: list[_ClientLoop], calls: int) -> None:
    def body(loop: _ClientLoop) -> None:
        for _ in range(calls):
            loop.call(None)

    _run_threads(loops, body)


def timed_window(server: ServerProcess, loops: list[_ClientLoop], seconds: float) -> Window:
    window = Window()

    def body(loop: _ClientLoop) -> None:
        deadline = clock() + seconds
        while clock() < deadline:
            loop.call(window)

    window.before = server.snapshot()
    cpu = time.process_time()
    started = _run_threads(loops, body)
    window.client_cpu = time.process_time() - cpu
    window.after = server.snapshot()
    window.wall = max((call["end"] for call in window.calls), default=started) - started
    return window


# -------------------------------------------------------------------- set-up
@dataclass
class Prepared:
    plan: CallPlan
    cache_dir: str | None
    server: ServerProcess
    loops: list[_ClientLoop]


_READY_PROBE = TransformationSpec(value="20240229", examples=[["20000101", "2000-01-01"]])


def _fill_cache(workload: Workload, plan: CallPlan, cache_dir: str, log: Log) -> None:
    """Send the working set once through a zero-latency server, then stop it."""
    server = ServerProcess(_server_config(workload, cache_dir, None, latency=0.0), log)
    try:
        loops = [_ClientLoop(i, server.port, plan, {}) for i in range(CLIENTS)]
        try:
            # Exactly the working set: without the fresh specs of a real call.
            size = workload.call_size
            chunks = [
                [plan.spec(i) for i in range(start, start + size)]
                for start in range(0, workload.working_set, size)
            ]

            def body(loop: _ClientLoop) -> None:
                for chunk in chunks[loop.index :: CLIENTS]:
                    for result in loop.client.submit_many(chunk):
                        result.unwrap()

            _run_threads(loops, body)
        finally:
            for loop in loops:
                loop.client.close()
        server.stop()
    finally:
        server.kill()


def set_up(
    workload: Workload, seed: int, scratch: str, log: Log, *, trace_out: str | None = None,
    filled_from: str | None = None,
) -> Prepared:
    """Everything up to the first answered request."""
    plan = CallPlan(workload, seed)
    plan.prepare(plan.warmup_calls + 2)
    oracle = build_oracle(plan)
    cache_dir = None
    if workload.persistent:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        if filled_from is not None:
            shutil.copytree(filled_from, cache_dir, dirs_exist_ok=True)
        elif workload.working_set is not None:
            _fill_cache(workload, plan, cache_dir, log)
    server = ServerProcess(_server_config(workload, cache_dir, trace_out), log)
    try:
        loops = [_ClientLoop(i, server.port, plan, oracle) for i in range(CLIENTS)]
        with Client.remote("127.0.0.1", server.port) as probe:
            probe.submit(_READY_PROBE)
    except BaseException:
        server.kill()
        raise
    return Prepared(plan, cache_dir, server, loops)


def tear_down(prepared: Prepared) -> dict[str, Any]:
    """Close the clients, stop the server in order, return its last word."""
    for loop in prepared.loops:
        loop.client.close()
    return prepared.server.stop()


# ----------------------------------------------------------------- the runs
@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    #: name -> (value, unit, samples behind it or ``None``)
    metrics: dict[str, tuple[float, str, int | None]]
    failures: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def to_driver_json(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()
                if name != FAILED_SHARE.name
            },
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def run_untraced(
    workload: Workload, seed: int, seconds: float, scratch: str, log: Log,
    setup_repeats: int = SETUP_REPEATS,
) -> RunResult:
    """``setup_repeats`` sub-runs, each a fresh set-up, warm-up and window.

    The windows share ``seconds`` equally; every timing is the median of its
    sub-run values, every per-spec count the ratio of the pooled counters.
    On a shared 2-vCPU machine a noisy neighbour can slow ten seconds on
    end, placement (:mod:`bench.placement`) or not: one server per run would
    carry that straight into the result, the median of three does not.
    """
    subruns: list[dict[str, tuple[float, int | None]]] = []
    attempted = failed = 0
    failures: list[str] = []
    for repeat in range(setup_repeats):
        started = clock()
        prepared = set_up(workload, seed, scratch, log)
        setup = clock() - started
        try:
            warm_up(prepared.loops, prepared.plan.warmup_calls)
            window = timed_window(prepared.server, prepared.loops, seconds / setup_repeats)
            final = tear_down(prepared)
        finally:
            prepared.server.kill()
        log(
            f"sub-run {repeat + 1}/{setup_repeats}: set-up {setup:.3f}s, "
            f"{window.specs_per_s:.1f} specs/s over {window.wall:.2f}s, "
            f"server moved {prepared.server.placement.moves}x"
        )
        subruns.append(_end_to_end(workload, window, final, setup))
        attempted += window.attempted
        failed += window.failed
        failures += window.failures

    metrics = {}
    for metric in END_TO_END:
        values = [subrun[metric.name][0] for subrun in subruns]
        samples = [subrun[metric.name][1] for subrun in subruns]
        total = None if None in samples else sum(samples)
        if metric.name in _POOLED and total:
            # A ratio of counters does not depend on the machine's speed;
            # pooling evens out the task mix over three times the specs.
            value = sum(v * n for v, n in zip(values, samples)) / total
        else:
            value = statistics.median(values)
        metrics[metric.name] = (value, metric.unit, total)
    metrics[FAILED_SHARE.name] = (failed / max(attempted, 1), FAILED_SHARE.unit, attempted)
    return RunResult(workload.name, seed, False, attempted, failed, metrics, failures)


def _end_to_end(
    workload: Workload, window: Window, final: dict[str, Any], setup: float
) -> dict[str, tuple[float, int | None]]:
    """The end-to-end metrics of one sub-run: name -> (value, samples)."""
    specs = max(window.specs, 1)
    latencies = sorted((call["end"] - call["start"]) * 1e3 for call in window.ok_calls)
    cpu_s = window.after["cpu_s"] - window.before["cpu_s"]
    return {
        "setup_s": (setup, 1),
        "specs_per_s": (window.specs_per_s, window.specs),
        "latency_p50_ms": (_percentile(latencies, 0.50), len(latencies)),
        "latency_p95_ms": (
            _percentile(latencies, 0.95 if workload.p95_supported else 0.50), len(latencies)
        ),
        "llm_calls_per_spec": (window.delta("prompts") / specs, window.specs),
        "llm_round_trips_per_spec": (window.delta("round_trips") / specs, window.specs),
        "billed_tokens_per_spec": (window.delta("tokens") / specs, window.specs),
        "server_cpu_ms_per_spec": (cpu_s * 1e3 / specs, window.specs),
        "server_peak_rss_mb": (final["rss_kb"] / 1024.0, None),
    }


def run_traced(workload: Workload, seed: int, seconds: float, scratch: str, log: Log) -> RunResult:
    """An untraced reference window, then the traced window and the probes."""
    filled = None
    # -- reference: the same code without the wrappers, for trace.overhead_ratio
    prepared = set_up(workload, seed, scratch, log)
    try:
        if workload.working_set is not None:
            # Keep an untouched copy of the filled cache for the traced server.
            filled = tempfile.mkdtemp(prefix="filled-", dir=scratch)
            shutil.copytree(prepared.cache_dir, filled, dirs_exist_ok=True)
        warm_up(prepared.loops, prepared.plan.warmup_calls)
        reference = timed_window(prepared.server, prepared.loops, seconds * _REFERENCE_SHARE)
        tear_down(prepared)
    finally:
        prepared.server.kill()

    # -- traced
    trace_out = os.path.join(scratch, "spans.jsonl")
    prepared = set_up(workload, seed, scratch, log, trace_out=trace_out, filled_from=filled)
    try:
        warm_up(prepared.loops, prepared.plan.warmup_calls)
        window = timed_window(prepared.server, prepared.loops, seconds)
        # The program's own counters since it started: warm-up and window.
        # (On `replay` the warm-up pass is where the persistent hits are.)
        with Client.remote("127.0.0.1", prepared.server.port) as stats_client:
            stats = stats_client.stats()
        tear_down(prepared)
    finally:
        prepared.server.kill()

    values: dict[str, float] = {}
    forest = SpanForest(window.calls, load_spans(trace_out))
    values.update(traced_metrics(forest, wall=window.wall, specs=window.specs))
    values.update(_stats_metrics(stats))
    sample = [prepared.plan.spec(i) for i in prepared.plan.oracle_indices()] or [
        prepared.plan.spec(i) for i in range(2)
    ]
    values.update(run_probes(sample, len(prepared.plan.indices(0, 0))))
    values.update(cache_dir_probe(prepared.cache_dir))

    specs = max(window.specs, 1)
    values["api.client_cpu_ms_per_spec"] = window.client_cpu * 1e3 / specs
    flow = window.flow
    values["flow.dedup_factor"] = flow["specs"] / flow["submitted"] if flow["submitted"] else 0.0
    tables = max(len(window.ok_calls), 1)
    values["flow.waves_per_table"] = flow["waves"] / tables if flow["rows"] else 0.0
    values["flow.submitted_per_row"] = flow["submitted"] / flow["rows"] if flow["rows"] else 0.0
    top = ceiling(
        workload.latency,
        window.delta("round_trips") / specs,
        llm_threads=LLM_THREADS,
        workers=CLUSTER_WORKERS if workload.mode == "cluster" else 1,
        clients=CLIENTS,
        # A plan keeps one partition's wave of work items in flight.
        specs_per_call=workload.pipeline_listings or len(prepared.plan.indices(0, 0)),
    )
    # CPU-bound (zero-latency backend): no ceiling to report, 0 stands for "none".
    values["model.ceiling_specs_per_s"] = top.specs_per_s or 0.0
    values["model.efficiency"] = top.efficiency(window.specs_per_s) or 0.0
    values["trace.overhead_ratio"] = (
        reference.specs_per_s / window.specs_per_s if window.specs_per_s else 0.0
    )

    samples = {"transport.self_ms_per_call": len(window.calls)}
    metrics = {
        m.name: (float(values[m.name]), m.unit, samples.get(m.name)) for m in PER_LAYER
    }
    return RunResult(
        workload.name,
        seed,
        True,
        window.attempted + reference.attempted,
        window.failed + reference.failed,
        metrics,
        window.failures + reference.failures,
    )


def _stats_metrics(stats: dict[str, Any]) -> dict[str, float]:
    """Per-layer numbers the program itself counts (``Client.stats()``)."""
    metrics = stats.get("metrics", {})
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    batches = count("batcher.batches")
    lookups = count("cache.hits") + count("cache.misses")
    routed = [value for name, value in counters.items() if name.startswith("router.routed.")]
    return {
        "batcher.mean_batch": count("batcher.requests") / batches if batches else 0.0,
        "batcher.flush_size_share": count("batcher.flush.size") / batches if batches else 0.0,
        "batcher.flush_idle_share": count("batcher.flush.idle") / batches if batches else 0.0,
        "batcher.flush_timeout_share": count("batcher.flush.timeout") / batches if batches else 0.0,
        "batcher.queue_wait_ms_p50": 1e3 * histograms.get("batcher.queue_wait", {}).get("p50", 0.0),
        "llm_cache.hit_share": count("cache.hits") / lookups if lookups else 0.0,
        "llm_cache.persistent_hit_share": (
            count("cache.persistent_hits") / lookups if lookups else 0.0
        ),
        "router.imbalance": (
            max(routed) / (sum(routed) / len(routed)) if routed and sum(routed) else 0.0
        ),
        "cluster.requeues": count("router.requeued"),
    }


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, scratch_root: str, log: Log,
    setup_repeats: int = SETUP_REPEATS,
) -> RunResult:
    """One run of one workload in a scratch directory of its own, removed after."""
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_root)
    try:
        if trace:
            return run_traced(workload, seed, seconds, scratch, log)
        return run_untraced(workload, seed, seconds, scratch, log, setup_repeats)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
