"""Benchmark: sequential ``run_many`` vs the batched serving engine.

Two claims are measured on a 50-task Restaurant imputation workload:

1. **Warm-cache speedup with bit-identical output** — a cold sequential run
   warms a persistent completion cache; a fresh pipeline (new process
   equivalent) executed through the concurrent engine against that cache is
   measurably faster and returns exactly the same predictions, traces and
   per-query usage.
2. **Cold micro-batching against a slow backend** — with a latency-bearing
   backend (one round-trip per ``complete_batch`` call, as for a remote API),
   the engine coalesces prompts across in-flight tasks so the total
   number of round-trips collapses, beating the sequential loop.
"""

import time

from conftest import run_once
from report import write_bench

from repro.core import UniDM, UniDMConfig
from repro.datasets import load_dataset
from repro.llm import CachedLLM, LanguageModel, SimulatedLLM
from repro.serving import EngineConfig, ExecutionEngine, PersistentCache

N_TASKS = 50


class LatencyLLM(LanguageModel):
    """Adds a fixed per-round-trip latency in front of a simulated backend.

    Models a remote completion API: each ``complete``/``complete_batch`` call
    costs one network round-trip regardless of batch size, which is exactly
    what micro-batching amortises.
    """

    def __init__(self, inner: SimulatedLLM, latency: float):
        super().__init__(tokenizer=inner.tokenizer)
        self.inner = inner
        self.latency = latency
        self.name = f"latency({inner.name})"
        self.round_trips = 0

    def _complete_text(self, prompt: str) -> str:
        self.round_trips += 1
        time.sleep(self.latency)
        return self.inner._complete_text(prompt)

    def complete_batch(self, prompts, kind="other"):
        self.round_trips += 1
        time.sleep(self.latency)
        return [
            self._record(prompt, self.inner._complete_text(prompt), kind)
            for prompt in prompts
        ]


def _workload():
    dataset = load_dataset("restaurant", seed=0, n_records=80, n_tasks=N_TASKS)
    assert len(dataset.tasks) == N_TASKS
    return dataset


def _fingerprint(results):
    return [
        (
            r.raw_answer,
            r.value,
            r.context_text,
            r.trace.target_prompt,
            r.usage.calls,
            r.usage.prompt_tokens,
            r.usage.completion_tokens,
        )
        for r in results
    ]


def test_engine_with_warmed_cache_beats_sequential_bitwise(benchmark, tmp_path):
    dataset = _workload()
    store = tmp_path / "completions"

    def fresh_pipeline():
        llm = CachedLLM(
            SimulatedLLM(knowledge=dataset.knowledge, seed=0),
            persistent=PersistentCache(store),
        )
        return UniDM(llm, UniDMConfig.full(seed=0))

    # Cold sequential baseline; warms the persistent cache as it goes.
    sequential_pipeline = fresh_pipeline()
    started = time.perf_counter()
    sequential = [sequential_pipeline.run(task) for task in dataset.tasks]
    t_sequential = time.perf_counter() - started

    # Fresh pipeline (as a new process would build) + concurrent engine over
    # the warmed cache, timed by pytest-benchmark.
    engine = ExecutionEngine(EngineConfig(max_batch_size=8, workers=8))
    warmed_pipeline = fresh_pipeline()
    concurrent = run_once(
        benchmark, lambda: warmed_pipeline.run_many(dataset.tasks, engine=engine)
    )
    t_engine = engine.last_report.elapsed

    assert _fingerprint(concurrent) == _fingerprint(sequential)
    assert warmed_pipeline.llm.hit_rate == 1.0
    # Every warm prompt is answered at submission: none rides a batch.
    assert warmed_pipeline.llm.persistent_hits == engine.last_report.stats.cached
    assert engine.last_report.stats.batches == 0
    # "Measurably faster": the warmed engine run must clearly beat the cold
    # sequential loop, not merely edge it out.
    assert t_engine < 0.5 * t_sequential, (
        f"engine {t_engine:.3f}s vs sequential {t_sequential:.3f}s"
    )

    write_bench(
        "serving",
        {
            "workload": {"tasks": N_TASKS, "dataset": "restaurant"},
            "sequential_cold": {"elapsed_s": round(t_sequential, 4)},
            "engine_warm": {
                "elapsed_s": round(t_engine, 4),
                "tasks_per_s": round(engine.last_report.tasks_per_second, 2),
                "llm_requests": engine.last_report.stats.requests,
            },
            "speedup": round(t_sequential / t_engine, 3),
        },
    )


def test_cold_micro_batching_amortises_backend_round_trips(benchmark):
    dataset = _workload()
    latency = 0.002  # 2ms per round-trip

    # Sequential: one round-trip per LLM call.
    seq_llm = LatencyLLM(SimulatedLLM(knowledge=dataset.knowledge, seed=0), latency)
    sequential_pipeline = UniDM(seq_llm, UniDMConfig.full(seed=0))
    started = time.perf_counter()
    sequential = [sequential_pipeline.run(task) for task in dataset.tasks]
    t_sequential = time.perf_counter() - started
    assert seq_llm.round_trips == sum(r.usage.calls for r in sequential)

    # Engine: concurrent tasks coalesce their prompts into shared
    # round-trips.
    eng_llm = LatencyLLM(SimulatedLLM(knowledge=dataset.knowledge, seed=0), latency)
    engine_pipeline = UniDM(eng_llm, UniDMConfig.full(seed=0))
    engine = ExecutionEngine(EngineConfig(max_batch_size=8, workers=16))
    concurrent = run_once(
        benchmark, lambda: engine_pipeline.run_many(dataset.tasks, engine=engine)
    )
    t_engine = engine.last_report.elapsed

    stats = engine.last_report.stats
    assert len(concurrent) == N_TASKS
    assert stats.mean_batch > 1.5, f"no coalescing happened: {stats}"
    assert eng_llm.round_trips == stats.batches
    assert eng_llm.round_trips < seq_llm.round_trips
    assert t_engine < t_sequential, (
        f"engine {t_engine:.3f}s vs sequential {t_sequential:.3f}s"
    )

    write_bench(
        "batching",
        {
            "workload": {"tasks": N_TASKS, "backend_latency_s": latency},
            "sequential": {
                "elapsed_s": round(t_sequential, 4),
                "round_trips": seq_llm.round_trips,
            },
            "engine": {
                "elapsed_s": round(t_engine, 4),
                "round_trips": eng_llm.round_trips,
                "mean_batch": round(stats.mean_batch, 3),
            },
            "round_trip_reduction": round(seq_llm.round_trips / eng_llm.round_trips, 3),
        },
    )
