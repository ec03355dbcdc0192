"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` is written from these tables (``python -m bench --write``)
and ``bench/tests/test_smoke.py`` checks the two agree, so a metric exists
under exactly one name.  What each one means, and which end-to-end metric a
layer metric is expected to move, is in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .workloads import WORKLOADS

#: How long one driver run measures (``--seconds``), and the default window.
RUN_SECONDS = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median an end-to-end metric may worsen by.
    bound: float | None = None


# A bound is one number per metric, so it has to hold on the noisiest
# workload.  On the shared 2-vCPU sandbox, with the server kept on a quiet
# CPU (bench/placement.py), the CPU-bound `overhead` workload and server CPU
# per spec everywhere still move 8-22 % between identical runs (quartile
# distance over ten runs; the host's memory system is shared), where the
# backend-bound timings move 1-8 %: the timing bounds sit at the ceiling the
# contract allows for that reason, not because the other workloads need it
# (measured spreads: bench/README.md, "Noise").
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("specs_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p95_ms", "ms", "lower", 0.25),
    Metric("llm_calls_per_spec", "count", "lower", 0.03),
    Metric("llm_round_trips_per_spec", "count", "lower", 0.03),
    Metric("billed_tokens_per_spec", "tokens", "lower", 0.03),
    Metric("server_cpu_ms_per_spec", "ms", "lower", 0.25),
    Metric("server_peak_rss_mb", "MB", "lower", 0.10),
)

#: Reported next to the end-to-end metrics but kept out of ``BENCHMARK.json``:
#: its healthy value is 0, which a relative bound cannot gate.  The driver
#: reads the same fact from the ``attempted``/``failed`` keys of a result.
FAILED_SHARE = Metric("failed_share", "ratio", "lower")

PER_LAYER = (
    # api
    Metric("api.encode_us_per_spec", "us", "lower"),
    Metric("api.parse_us_per_spec", "us", "lower"),
    Metric("api.to_task_us_per_spec", "us", "lower"),
    Metric("api.decode_us_per_spec", "us", "lower"),
    Metric("api.request_bytes_per_spec", "bytes", "lower"),
    Metric("api.client_cpu_ms_per_spec", "ms", "lower"),
    # serving.transport
    Metric("transport.self_ms_per_call", "ms", "lower"),
    Metric("transport.echo_us_per_request", "us", "lower"),
    Metric("transport.groups_per_call", "count", "lower"),
    # serving.service
    Metric("service.pre_engine_ms_per_call", "ms", "lower"),
    Metric("service.post_engine_ms_per_call", "ms", "lower"),
    Metric("service.overlap_max", "count", "higher"),
    # serving.engine
    Metric("engine.run_ms_per_call", "ms", "lower"),
    Metric("engine.self_ms_per_spec", "ms", "lower"),
    Metric("engine.llm_wait_share", "ratio", "higher"),
    Metric("engine.single_task_run_us", "us", "lower"),
    # serving.batcher
    Metric("batcher.mean_batch", "count", "higher"),
    Metric("batcher.flush_size_share", "ratio", "higher"),
    Metric("batcher.flush_idle_share", "ratio", "lower"),
    Metric("batcher.flush_timeout_share", "ratio", "lower"),
    Metric("batcher.queue_wait_ms_p50", "ms", "lower"),
    # llm.cache
    Metric("llm_cache.hit_share", "ratio", "higher"),
    Metric("llm_cache.persistent_hit_share", "ratio", "higher"),
    Metric("llm_cache.self_us_per_prompt", "us", "lower"),
    # serving.cache
    Metric("pcache.get_us", "us", "lower"),
    Metric("pcache.put_us", "us", "lower"),
    Metric("pcache.note_route_us", "us", "lower"),
    Metric("pcache.puts_per_spec", "count", "lower"),
    Metric("pcache.open_s", "s", "lower"),
    Metric("pcache.disk_bytes_per_entry", "bytes", "lower"),
    # backend (the stub)
    Metric("backend.busy_share", "ratio", "higher"),
    Metric("backend.concurrency_mean", "count", "higher"),
    Metric("backend.prompts_per_round_trip", "count", "higher"),
    # cluster
    Metric("router.self_ms_per_call", "ms", "lower"),
    Metric("router.route_us_per_spec", "us", "lower"),
    Metric("router.imbalance", "ratio", "lower"),
    Metric("cluster.workers_busy_mean", "count", "higher"),
    Metric("cluster.requeues", "count", "lower"),
    # flow
    Metric("flow.dedup_factor", "ratio", "higher"),
    Metric("flow.waves_per_table", "count", "lower"),
    Metric("flow.submitted_per_row", "count", "lower"),
    Metric("flow.plan_ms_per_table", "ms", "lower"),
    # core
    Metric("core.run_us_per_spec", "us", "lower"),
    Metric("core.prompt_chars_per_spec", "chars", "lower"),
    # model / trace
    Metric("model.ceiling_specs_per_s", "1/s", "higher"),
    Metric("model.efficiency", "ratio", "higher"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.coverage", "ratio", "higher"),
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
