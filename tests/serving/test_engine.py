"""Tests for the execution engine: ordering, equivalence, concurrency."""

import asyncio
import gc
import math
import sys
import threading
import time
from concurrent.futures import Future
from contextlib import closing

import pytest

from repro.api import (
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ExtractionSpec,
    ImputationSpec,
    JoinDiscoverySpec,
    TableQASpec,
    TransformationSpec,
)
from repro.core import ImputationTask, TransformationTask, UniDM, UniDMConfig
from repro.llm import CachedLLM, SimulatedLLM
from repro.llm.base import LanguageModel
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    EngineConfig,
    ExecutionEngine,
    PersistentCache,
)


def city_tasks(city_table):
    return [
        ImputationTask(city_table, city_table[5], "timezone"),
        ImputationTask(city_table, city_table[0], "timezone"),
        ImputationTask(city_table, city_table[3], "country"),
        ImputationTask(city_table, city_table[1], "country"),
    ]


def make_pipeline(knowledge, seed=0, persistent=None):
    llm = SimulatedLLM(knowledge=knowledge, seed=seed)
    if persistent is not None:
        llm = CachedLLM(llm, persistent=persistent)
    return UniDM(llm, UniDMConfig.full(seed=seed, candidate_sample_size=5, top_k_instances=2))


def result_fingerprint(results):
    return [
        (
            r.raw_answer,
            r.value,
            r.context_text,
            r.selected_attributes,
            r.trace.target_prompt,
            r.usage.calls,
            r.usage.prompt_tokens,
            r.usage.completion_tokens,
        )
        for r in results
    ]


# --------------------------------------------------------------- equivalence
def test_concurrent_engine_matches_sequential_on_warmed_cache(
    city_table, city_knowledge, tmp_path
):
    store = tmp_path / "cache"
    warm = make_pipeline(city_knowledge, seed=5, persistent=PersistentCache(store))
    sequential = [warm.run(task) for task in city_tasks(city_table)]

    # Fresh wrapper + fresh inner model, as a new process would have.
    cold = make_pipeline(city_knowledge, seed=5, persistent=PersistentCache(store))
    engine = ExecutionEngine(EngineConfig(max_batch_size=8, workers=4))
    concurrent = engine.run(cold, city_tasks(city_table))

    assert result_fingerprint(sequential) == result_fingerprint(concurrent)
    assert cold.llm.hit_rate == 1.0  # everything served from the warmed store


def test_results_preserve_input_order(city_table, city_knowledge):
    pipeline = make_pipeline(city_knowledge)
    tasks = city_tasks(city_table)
    results = ExecutionEngine(EngineConfig(max_batch_size=4, workers=4)).run(pipeline, tasks)
    assert [r.query for r in results] == [task.query() for task in tasks]


def test_empty_task_list(city_knowledge):
    pipeline = make_pipeline(city_knowledge)
    metrics = MetricsRegistry()
    engine = ExecutionEngine(metrics=metrics)
    assert engine.run(pipeline, []) == []
    assert batcher_counts(metrics) == (0, 0, 0)


def test_engine_report_counts_requests(city_table, city_knowledge):
    pipeline = make_pipeline(city_knowledge)
    metrics = MetricsRegistry()
    engine = ExecutionEngine(EngineConfig(max_batch_size=4, workers=4), metrics=metrics)
    started = time.perf_counter()
    results = engine.run(pipeline, city_tasks(city_table))
    elapsed = time.perf_counter() - started
    assert len(results) == 4
    assert elapsed > 0
    # Every pipeline stage went through the batcher.
    requests, cached, _ = batcher_counts(metrics)
    assert requests + cached == sum(r.usage.calls for r in results)


def test_per_task_usage_is_isolated(city_table, city_knowledge):
    pipeline = make_pipeline(city_knowledge)
    results = ExecutionEngine(EngineConfig(max_batch_size=4, workers=4)).run(
        pipeline, city_tasks(city_table)
    )
    total = sum(r.usage.total_tokens for r in results)
    assert all(r.usage.total_tokens > 0 for r in results)
    assert pipeline.llm.usage.total_tokens == total


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_batch_size=0)
    with pytest.raises(ValueError):
        EngineConfig(workers=0)
    with pytest.raises(ValueError):
        EngineConfig(max_wait=-1.0)


def test_engine_run_works_inside_another_running_loop(city_table, city_knowledge):
    # The engine has its own loop thread, so a caller that is itself a
    # coroutine of some other loop just blocks on it like any other thread.
    pipeline = make_pipeline(city_knowledge, seed=5)
    reference = make_pipeline(city_knowledge, seed=5)
    expected = [reference.run(task) for task in city_tasks(city_table)]

    async def scenario():
        with closing(ExecutionEngine(EngineConfig(max_batch_size=1, workers=1))) as engine:
            return engine.run(pipeline, city_tasks(city_table))

    assert result_fingerprint(asyncio.run(scenario())) == result_fingerprint(expected)


def test_engine_run_from_its_own_loop_thread_raises(gated_llm):
    # A backend that re-enters the engine on the loop thread would wait for
    # tasks only that thread can run; it gets an error instead of a deadlock.
    engine = ExecutionEngine()
    pipeline = UniDM(gated_llm(open_gate=True), UniDMConfig.full(seed=0))
    with closing(engine):
        resident = engine._started()
        outcome = Future()

        def reenter():
            try:
                outcome.set_result(engine.run(pipeline, [echo_task("x")]))
            except RuntimeError as exc:
                outcome.set_exception(exc)

        resident._loop.call_soon_threadsafe(reenter)
        with pytest.raises(RuntimeError, match="own loop thread"):
            outcome.result(timeout=10)


# ------------------------------------------------- concurrency and lifecycle
def batcher_counts(metrics):
    """``(requests, cached, batches)``: the batcher's counters on ``metrics``."""
    return tuple(
        metrics.counter(f"batcher.{name}").value for name in ("requests", "cached", "batches")
    )


def echo_task(tag):
    return TransformationTask(f"<{tag}>", [("20000101", "2000-01-01")])


def engine_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "repro-engine" or thread.name.startswith("repro-llm")
    ]


def test_a_hundred_runs_share_one_loop_thread_and_one_llm_thread(gated_llm):
    before = set(engine_threads())
    pipeline = UniDM(gated_llm(open_gate=True), UniDMConfig.full(seed=0))
    with closing(ExecutionEngine()) as engine:
        for index in range(100):
            assert len(engine.run(pipeline, [echo_task(index)])) == 1
        mine = set(engine_threads()) - before
        assert sorted(thread.name.split("_")[0] for thread in mine) == [
            "repro-engine",
            "repro-llm",
        ]
        assert len(engine._started()._batchers) == 1
    assert not set(engine_threads()) - before


def test_backend_failure_fails_only_that_batch_and_slots_come_back(gated_llm):
    class FailsOnce(gated_llm):
        def __init__(self):
            super().__init__()
            self.failed = False

        def complete_batch(self, prompts, kind="other"):
            completions = super().complete_batch(prompts, kind=kind)
            if not self.failed:
                self.failed = True
                raise ConnectionError("backend hiccup")
            return completions

    backend = FailsOnce()
    pipeline = UniDM(backend, UniDMConfig.full(seed=0))
    with closing(ExecutionEngine(EngineConfig(max_batch_size=2, workers=2))) as engine:
        outcomes = {}

        def caller(name):
            try:
                outcomes[name] = engine.run(pipeline, [echo_task(f"{name}-{i}") for i in range(2)])
            except ConnectionError as exc:
                outcomes[name] = exc

        first = threading.Thread(target=caller, args=("first",))
        first.start()
        # first's two tasks hold both slots; their first batch is in the backend.
        assert backend.entered.acquire(timeout=10)
        second = threading.Thread(target=caller, args=("second",))
        second.start()
        backend.gate.set()
        for thread in (first, second):
            thread.join(30)
            assert not thread.is_alive()
        # The batch that raised carried only first's prompts: first fails as a
        # whole, its slots come back, and second — queued behind it — is served.
        assert isinstance(outcomes["first"], ConnectionError)
        assert [r.usage.calls for r in outcomes["second"]] == [3, 3]
        assert len(engine.run(pipeline, [echo_task("after")])) == 1
        assert engine._started()._free == 2


def test_a_short_reply_fails_the_run_and_slots_come_back(gated_llm):
    class ShortOnce(gated_llm):
        def __init__(self):
            super().__init__(open_gate=True)
            self.short = True

        def complete_batch(self, prompts, kind="other"):
            completions = super().complete_batch(prompts, kind=kind)
            if self.short:
                self.short = False
                return completions[:-1]
            return completions

    pipeline = UniDM(ShortOnce(), UniDMConfig.full(seed=0))
    with closing(ExecutionEngine(EngineConfig(max_batch_size=2, workers=2))) as engine:
        outcome = Future()

        def caller():  # at the parent the run never returned
            try:
                outcome.set_result(engine.run(pipeline, [echo_task("a"), echo_task("b")]))
            except RuntimeError as exc:
                outcome.set_exception(exc)

        threading.Thread(target=caller, daemon=True).start()
        with pytest.raises(RuntimeError, match="1 completions for 2 prompts"):
            outcome.result(timeout=10)
        assert engine._started()._free == 2
        assert [r.usage.calls for r in engine.run(pipeline, [echo_task("after")])] == [3]


# ------------------------------------------------------ kinds mix in the batcher
ROWS = [
    {"city": f"city-{i}", "country": f"country-{i % 4}", "zip": f"{10000 + 7 * i}"}
    for i in range(12)
]


def seven_type_tasks(n):
    """``n`` distinct tasks cycling over the seven types: chains of 2 to 5 prompts."""
    makers = [
        lambda i: ImputationSpec(
            rows=ROWS, target={"city": ROWS[i % 12]["city"], "zip": str(i)}, attribute="country"
        ),
        lambda i: ErrorDetectionSpec(
            rows=ROWS, target={**ROWS[i % 12], "zip": str(i)}, attribute="zip"
        ),
        lambda i: TableQASpec(rows=ROWS, question=f"which country is city-{i} in?"),
        lambda i: TransformationSpec(value=f"1999{i:04d}", examples=[["20000101", "2000-01-01"]]),
        lambda i: ExtractionSpec(document=f"city-{i} hosted the final.", attribute="city"),
        lambda i: EntityResolutionSpec(
            record_a={"name": f"item {i}", "brand": "apple"},
            record_b={"name": f"Item {i}", "brand": "Apple"},
        ),
        lambda i: JoinDiscoverySpec(
            table_a={"name": "rank", "rows": [{"abrv": f"C{i}", "rank": 1}]},
            column_a="abrv",
            table_b={"name": "geo", "rows": [{"ISO": f"C{i}", "area": "EU"}]},
            column_b="ISO",
        ),
    ]
    return [makers[i % len(makers)](i).to_task() for i in range(n)]


@pytest.mark.parametrize("latency", [0.0, 0.003])
def test_tasks_at_different_stages_fill_each_round_trip(gated_llm, latency):
    class Backend(gated_llm):
        def complete_batch(self, prompts, kind="other"):
            time.sleep(latency)
            return super().complete_batch(prompts, kind=kind)

    backend = Backend(open_gate=True)
    pipeline = UniDM(backend, UniDMConfig.full(seed=0))
    metrics = MetricsRegistry()
    config = EngineConfig(max_batch_size=8, workers=8)
    with closing(ExecutionEngine(config, metrics=metrics)) as engine:
        results = engine.run(pipeline, seven_type_tasks(32))
    requests, cached, batches = batcher_counts(metrics)
    calls = [r.usage.calls for r in results]
    assert len(set(calls)) >= 3  # slots refill at different moments
    # Full batches but for each chain's tail; same-kind batching needed 25 here.
    assert len(backend.batches) <= math.ceil(sum(calls) / 8) + max(calls)
    assert len(backend.batches) == batches == 15  # whatever the latency
    assert requests + cached == sum(calls)
    assert "mixed" in {kind for kind, _ in backend.batches}


def test_a_mixed_run_goes_down_in_the_batches_it_always_did(gated_llm, line_up_engine):
    """The batching rule, pinned: sixteen tasks of seven types through eight
    slots, behind a cache, every round trip let go only once the engine's
    loop is quiet — so each batch is what the rule alone puts in it.  A
    prompt is labelled ``<task>.<kind>`` by the first task (in input order)
    that asks it alone."""

    class Stepped(gated_llm):
        def complete_batch(self, prompts, kind="other"):
            self.batches.append((kind, list(prompts)))
            self.entered.release()
            assert self.turns.acquire(timeout=30)
            return LanguageModel.complete_batch(self, prompts, kind=kind)

    labels = {}

    class Alone(gated_llm):
        def complete(self, prompt, kind="other"):
            labels.setdefault(prompt, f"{index}.{kind}")
            return super().complete(prompt, kind=kind)

    tasks = seven_type_tasks(16)
    for index, task in enumerate(tasks):
        UniDM(Alone(open_gate=True), UniDMConfig.full(seed=0)).run(task)

    backend = Stepped()
    backend.turns = threading.Semaphore(0)
    pipeline = UniDM(CachedLLM(backend), UniDMConfig.full(seed=0))
    engine = line_up_engine(EngineConfig(max_batch_size=8, workers=8, max_wait=10.0))
    results = []
    with closing(engine):
        caller = threading.Thread(target=lambda: results.extend(engine.run(pipeline, tasks)))
        caller.start()
        assert engine.handed.acquire(timeout=10)
        loop = engine._resident._loop
        while True:
            if backend.entered.acquire(timeout=0.02):
                quiet = threading.Event()

                def hop(left):
                    if left:
                        loop.call_soon(hop, left - 1)
                    else:
                        quiet.set()

                loop.call_soon_threadsafe(hop, 12)
                assert quiet.wait(10)
                backend.turns.release()
            elif not caller.is_alive():
                break
    assert len(results) == len(tasks)
    batches = [[labels[prompt] for prompt in prompts] for _, prompts in backend.batches]
    assert [len(batch) for batch in batches] == [8, 8, 8, 8, 4, 3, 2]
    assert batches == [
        ["0.p_rm", "1.p_rm", "2.p_rm", "3.p_dp", "4.p_cq", "5.p_cq", "6.p_dp", "7.p_rm"],
        ["0.p_ri", "1.p_ri", "2.p_cq", "3.p_cq", "2.answer", "0.answer", "6.p_cq", "7.p_ri"],
        ["0.p_dp", "1.p_dp", "7.p_dp", "8.p_rm", "9.p_rm", "10.p_cq", "11.p_cq", "12.p_cq"],
        ["0.p_cq", "1.p_cq", "7.p_cq", "8.p_ri", "9.p_cq", "13.p_dp", "14.p_rm", "15.p_rm"],
        ["8.p_dp", "13.p_cq", "14.p_ri", "15.p_ri"],
        ["8.p_cq", "14.p_dp", "15.p_dp"],
        ["14.p_cq", "15.p_cq"],
    ]


# ------------------------------------------------------- hits never queue
def test_a_warm_run_returns_while_another_run_holds_the_llm_thread(gated_llm):
    backend = gated_llm()
    pipeline = UniDM(CachedLLM(backend), UniDMConfig.full(seed=0))
    warm = [echo_task(f"warm-{i}") for i in range(3)]
    expected = [pipeline.run(task) for task in warm]  # the sequential loop is not gated
    asked = list(backend.prompts)
    outcome = Future()
    metrics = MetricsRegistry()

    def warm_caller():
        try:
            outcome.set_result(engine.run(pipeline, warm))
        except BaseException as exc:
            outcome.set_exception(exc)

    with closing(ExecutionEngine(EngineConfig(workers=8), metrics=metrics)) as engine:
        holder = threading.Thread(target=engine.run, args=(pipeline, [echo_task("cold")]))
        holder.start()
        try:
            assert backend.entered.acquire(timeout=10)  # the one LLM thread is held
            before = batcher_counts(metrics)
            threading.Thread(target=warm_caller).start()
            # At the parent every warm prompt queued behind the held round trip.
            results = outcome.result(timeout=10)
            warm_counts = tuple(n - m for n, m in zip(batcher_counts(metrics), before))
            assert not backend.gate.is_set() and holder.is_alive()
        finally:
            backend.gate.set()
        holder.join(30)
        assert not holder.is_alive()
    assert result_fingerprint(results) == result_fingerprint(expected)
    assert backend.prompts[: len(asked)] == asked and "warm" not in "".join(
        backend.prompts[len(asked) :]
    )
    # The warm run's prompts were all answered at submission: none took a seat.
    assert warm_counts == (0, sum(r.usage.calls for r in results), 0)


@pytest.mark.parametrize("warmed", [0, 7, 14], ids=["cold", "half-warm", "warm"])
def test_hits_and_misses_count_as_in_the_sequential_loop(gated_llm, tmp_path, warmed):
    tasks = seven_type_tasks(14)

    def fresh(side):
        # Its own store, pre-filled by another wrapper (as another process
        # would have) with the first ``warmed`` tasks' prompts.
        store = tmp_path / side
        filler = CachedLLM(gated_llm(open_gate=True), persistent=PersistentCache(store))
        for task in tasks[:warmed]:
            UniDM(filler, UniDMConfig.full(seed=0)).run(task)
        backend = gated_llm(open_gate=True)
        llm = CachedLLM(backend, persistent=PersistentCache(store))
        return backend, llm, UniDM(llm, UniDMConfig.full(seed=0))

    loop_backend, loop_llm, loop_pipeline = fresh("loop")
    sequential = [loop_pipeline.run(task) for task in tasks]
    backend, llm, pipeline = fresh("engine")
    metrics = MetricsRegistry()
    config = EngineConfig(max_batch_size=8, workers=8)
    with closing(ExecutionEngine(config, metrics=metrics)) as engine:
        concurrent = engine.run(pipeline, tasks)
    requests, cached, batches = batcher_counts(metrics)

    # Every prompt is counted exactly once, as a hit or as a miss, whether it
    # was answered at submission or rode a batch.
    assert result_fingerprint(concurrent) == result_fingerprint(sequential)
    assert (llm.hits, llm.misses, llm.persistent_hits) == (
        loop_llm.hits,
        loop_llm.misses,
        loop_llm.persistent_hits,
    )
    assert llm.usage.snapshot() == loop_llm.usage.snapshot()
    assert sorted(backend.prompts) == sorted(loop_backend.prompts)
    calls = sum(r.usage.calls for r in concurrent)
    assert requests + cached == calls == llm.hits + llm.misses
    if warmed == len(tasks):
        assert (cached, batches, backend.prompts) == (calls, 0, [])
        # A hit is recorded under its own kind, never under a batch's label.
        assert llm.usage.per_prompt_kind == loop_llm.usage.per_prompt_kind
    elif warmed:
        assert 0 < cached < calls and llm.persistent_hits > 0


def test_many_callers_under_a_short_switch_interval_lose_nothing(gated_llm):
    # More caller threads than cores, preempted every 10 us: a lost update on
    # the slot count, a run's results or its stats would show here.
    backend = gated_llm(open_gate=True)
    pipeline = UniDM(CachedLLM(backend), UniDMConfig.full(seed=0))
    alone = UniDM(gated_llm(open_gate=True), UniDMConfig.full(seed=0))
    expected = {tag: alone.run(echo_task(tag)).raw_answer for tag in range(12)}
    failures = []

    def caller(offset):
        for round_ in range(10):
            tags = [(offset + round_ + i) % 12 for i in range(3)]
            results = engine.run(pipeline, [echo_task(tag) for tag in tags])
            if [r.raw_answer for r in results] != [expected[tag] for tag in tags]:
                failures.append((offset, round_))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with closing(ExecutionEngine(EngineConfig(workers=4))) as engine:
            threads = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            resident = engine._started()
            assert resident._free == 4 and not resident._runs
            assert len(resident._waiting) == 0
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert len(backend.prompts) == len(set(backend.prompts))  # each asked once


def test_close_is_idempotent_and_stops_the_threads(gated_llm):
    before = set(engine_threads())
    pipeline = UniDM(gated_llm(open_gate=True), UniDMConfig.full(seed=0))
    engine = ExecutionEngine()
    engine.close()  # never started: nothing to stop
    engine.run(pipeline, [echo_task("a")])
    assert set(engine_threads()) - before
    engine.close()
    engine.close()
    assert not set(engine_threads()) - before
    # A shared engine need not agree on who closes last: the next run restarts it.
    assert len(engine.run(pipeline, [echo_task("b")])) == 1
    engine.close()
    assert not set(engine_threads()) - before


def test_close_fails_the_runs_in_flight(gated_llm):
    backend = gated_llm()
    pipeline = UniDM(backend, UniDMConfig.full(seed=0))
    engine = ExecutionEngine()
    outcome = Future()

    def caller():
        try:
            outcome.set_result(engine.run(pipeline, [echo_task("stuck")]))
        except RuntimeError as exc:
            outcome.set_exception(exc)

    thread = threading.Thread(target=caller)
    thread.start()
    assert backend.entered.acquire(timeout=10)
    closer = threading.Thread(target=engine.close)
    closer.start()  # waits for the LLM thread, which waits for the gate
    with pytest.raises(RuntimeError, match="closed"):
        outcome.result(timeout=10)
    backend.gate.set()
    for waiting in (thread, closer):
        waiting.join(10)
        assert not waiting.is_alive()


def test_dropped_engines_do_not_accumulate_threads(gated_llm):
    pipeline = UniDM(gated_llm(open_gate=True), UniDMConfig.full(seed=0))
    started = threading.active_count()
    for index in range(200):
        ExecutionEngine().run(pipeline, [echo_task(index)])
    gc.collect()
    deadline = time.monotonic() + 10.0
    while threading.active_count() > started and time.monotonic() < deadline:
        time.sleep(0.01)  # finalized engines' threads are on their way out
    assert threading.active_count() == started
