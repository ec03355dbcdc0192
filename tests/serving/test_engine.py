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
from repro.serving.engine import SHARE
from repro.tenancy import DEFAULT_TENANT


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


def stepped(gated_llm, clock=None, trips=()):
    """A gated backend whose round trips each land when the test releases
    a ``turns`` permit.  The n-th takes ``trips[n]`` seconds of the batcher's
    ``clock`` (none once ``trips`` runs out)."""
    trips = list(trips)

    class Stepped(gated_llm):
        def complete_batch(self, prompts, kind="other"):
            if clock is not None and trips:
                clock.now += trips.pop(0)
            self.batches.append((kind, list(prompts)))
            self.entered.release()
            assert self.turns.acquire(timeout=30)
            return LanguageModel.complete_batch(self, prompts, kind=kind)

    backend = Stepped()
    backend.turns = threading.Semaphore(0)
    return backend


def wait_quiet(loop):
    """Return once ``loop`` has run twelve turns of nothing but this wait:
    whatever the engine had to do before then is done."""
    quiet = threading.Event()

    def hop(left):
        if left:
            loop.call_soon(hop, left - 1)
        else:
            quiet.set()

    loop.call_soon_threadsafe(hop, 12)
    assert quiet.wait(10)


def test_a_mixed_run_goes_down_in_the_batches_it_always_did(gated_llm, line_up_engine):
    """The batching rule, pinned: sixteen tasks of seven types through eight
    slots, behind a cache, every round trip let go only once the engine's
    loop is quiet — so each batch is what the rule alone puts in it.  A
    prompt is labelled ``<task>.<kind>`` by the first task (in input order)
    that asks it alone."""

    labels = {}

    class Alone(gated_llm):
        def complete(self, prompt, kind="other"):
            labels.setdefault(prompt, f"{index}.{kind}")
            return super().complete(prompt, kind=kind)

    tasks = seven_type_tasks(16)
    for index, task in enumerate(tasks):
        UniDM(Alone(open_gate=True), UniDMConfig.full(seed=0)).run(task)

    backend = stepped(gated_llm)
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
                wait_quiet(loop)
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
        # Every hit was answered at submission: no batch reached the backend.
        assert backend.batches == []
    elif warmed:
        assert 0 < cached < calls and llm.persistent_hits > 0


# ------------------------------------------- held for the caller who is back
def land_each_round_trip_once_quiet(engine, backend, done, deadline=30.0):
    """Let every round trip land once the engine's loop has gone quiet, until
    ``done()`` (within ``deadline`` seconds)."""
    loop = engine._resident._loop
    until = time.monotonic() + deadline
    while not done():
        assert time.monotonic() < until, "the callers were not answered in time"
        if backend.entered.acquire(timeout=0.02):
            wait_quiet(loop)
            backend.turns.release()


def two_callers(engine, pipeline, backend, again=None):
    """Callers ``a`` and ``b``, one thread each; returns their results by
    run, and a ``done()`` that is true once both threads returned.

    ``a`` runs ``<a1>`` and then, once ``again`` is set, ``<a2>`` (never,
    without ``again``).  ``b`` runs ``<b>``, lined up while ``a1``'s first
    round trip is in flight: each run asks three prompts, one a round trip,
    so when ``a1`` is answered ``b`` still has its last one to ask.
    """
    results = {}

    def a():
        results["a1"] = engine.run(pipeline, [echo_task("a1")])
        if again is not None and again.wait(30):
            results["a2"] = engine.run(pipeline, [echo_task("a2")])

    def b():
        results["b"] = engine.run(pipeline, [echo_task("b")])

    callers = [threading.Thread(target=a), threading.Thread(target=b)]
    callers[0].start()
    assert engine.handed.acquire(timeout=10)
    assert backend.entered.acquire(timeout=10)  # a1's first round trip
    callers[1].start()
    assert engine.handed.acquire(timeout=10)
    wait_quiet(engine._resident._loop)  # b's first prompt waits behind it
    backend.turns.release()
    return results, lambda: not any(caller.is_alive() for caller in callers)


def sizes(backend):
    """How many prompts each round trip carried (every run asks one a trip)."""
    return [len(prompts) for _, prompts in backend.batches]


def flushes(metrics):
    return {
        reason: metrics.counter(f"batcher.flush.{reason}").value
        for reason in ("size", "idle", "timeout")
    }


def test_a_quiet_batch_is_held_for_the_caller_just_answered(
    gated_llm, line_up_engine, batcher_clock
):
    """Once ``a1`` is answered, ``b``'s last prompt waits for ``a``'s next
    run, whose first prompt rides the same round trip.  Without the hold the
    idle check sends it alone, and ``a2`` shares no round trip."""
    backend = stepped(gated_llm, batcher_clock, trips=[20.0] * 3)
    pipeline = UniDM(backend, UniDMConfig.full(seed=0))
    metrics = MetricsRegistry()
    again = threading.Event()
    engine = line_up_engine(EngineConfig(max_wait=30.0), metrics)
    with closing(engine):
        results, done = two_callers(engine, pipeline, backend, again)
        land_each_round_trip_once_quiet(engine, backend, lambda: "a1" in results)
        wait_quiet(engine._resident._loop)  # the idle check has had its turns
        again.set()  # a2's arrival ends the hold at once, not 20 s later
        land_each_round_trip_once_quiet(engine, backend, done, deadline=10.0)
    assert sorted(results) == ["a1", "a2", "b"]
    # a1 | a1 b | a1 b | b a2 | a2 | a2
    assert sizes(backend) == [1, 2, 2, 2, 1, 1]
    # Ended by a2's arrival, not by the 30 s max_wait.
    assert flushes(metrics) == {"size": 0, "idle": 6, "timeout": 0}


def test_a_lone_sequential_caller_is_never_held(gated_llm, line_up_engine, batcher_clock):
    """Nothing is pending while a lone caller is away, and its next run ends
    any hold as it arrives: a held first prompt would flush as a timeout."""
    backend = stepped(gated_llm, batcher_clock, trips=[20.0] * 12)
    pipeline = UniDM(backend, UniDMConfig.full(seed=0))
    metrics = MetricsRegistry()
    engine = line_up_engine(EngineConfig(max_wait=0.5), metrics)

    def caller():
        for index in range(4):
            engine.run(pipeline, [echo_task(index)])

    with closing(engine):
        thread = threading.Thread(target=caller)
        thread.start()
        assert engine.handed.acquire(timeout=10)
        land_each_round_trip_once_quiet(engine, backend, lambda: not thread.is_alive())
    assert flushes(metrics) == {"size": 0, "idle": 12, "timeout": 0}


def test_an_instant_backend_is_never_held(gated_llm, line_up_engine, batcher_clock):
    """A round trip that takes no time caps the hold at none: ``b`` is
    answered while ``a`` stays away, well inside the 30 s ``max_wait``."""
    backend = stepped(gated_llm, batcher_clock)
    pipeline = UniDM(backend, UniDMConfig.full(seed=0))
    metrics = MetricsRegistry()
    again = threading.Event()
    engine = line_up_engine(EngineConfig(max_wait=30.0), metrics)
    with closing(engine):
        results, done = two_callers(engine, pipeline, backend, again)
        land_each_round_trip_once_quiet(engine, backend, lambda: "b" in results, deadline=10.0)
        again.set()
        land_each_round_trip_once_quiet(engine, backend, done)
    assert sorted(results) == ["a1", "a2", "b"]
    # a1 | a1 b | a1 b | b | a2 | a2 | a2
    assert sizes(backend) == [1, 2, 2, 1, 1, 1, 1]
    assert flushes(metrics) == {"size": 0, "idle": 7, "timeout": 0}


def test_a_caller_that_never_comes_back_holds_no_longer_than_max_wait(
    gated_llm, line_up_engine, batcher_clock
):
    """``a`` never runs again: ``b``'s held prompt leaves when ``max_wait``
    (0.5 s, shorter than the 20 s round trip) runs out."""
    backend = stepped(gated_llm, batcher_clock, trips=[20.0] * 3)
    pipeline = UniDM(backend, UniDMConfig.full(seed=0))
    metrics = MetricsRegistry()
    engine = line_up_engine(EngineConfig(max_wait=0.5), metrics)
    with closing(engine):
        results, done = two_callers(engine, pipeline, backend)
        land_each_round_trip_once_quiet(engine, backend, done)
    assert sorted(results) == ["a1", "b"]
    # a1 | a1 b | a1 b | b
    assert sizes(backend) == [1, 2, 2, 1]
    assert flushes(metrics) == {"size": 0, "idle": 3, "timeout": 1}


# ------------------------------------------- planned while the backend works
class PlansAhead(UniDM):
    """A pipeline that records the tasks the engine planned ahead of their
    admission, while a round trip was in flight."""

    def __init__(self, llm, config):
        super().__init__(llm, config)
        self.ahead = []

    def plan(self, task, trace):
        if sys._getframe(1).f_code.co_name == "_prepare":
            self.ahead.append(task)
        return super().plan(task, trace)


def test_a_run_planned_ahead_answers_as_one_planned_at_admission(gated_llm, line_up_engine):
    """Sixteen tasks through two slots, every round trip let go once the
    engine's loop is quiet: the fourteen that wait are each planned during a
    round trip, and results, prompts and usage are those of sixteen slots
    (no task waits, none is planned ahead) and of the sequential loop."""
    tasks = seven_type_tasks(16)
    seen = []
    for workers in (2, 16):
        backend = stepped(gated_llm)
        llm = CachedLLM(backend)
        pipeline = PlansAhead(llm, UniDMConfig.full(seed=0))
        engine = line_up_engine(EngineConfig(max_batch_size=8, workers=workers, max_wait=10.0))
        results = []
        with closing(engine):
            caller = threading.Thread(target=lambda: results.extend(engine.run(pipeline, tasks)))
            caller.start()
            assert engine.handed.acquire(timeout=10)
            land_each_round_trip_once_quiet(engine, backend, lambda: not caller.is_alive())
        seen.append(
            (
                len(pipeline.ahead),
                result_fingerprint(results),
                sorted(backend.prompts),
                llm.usage.snapshot(),
            )
        )
    alone = CachedLLM(gated_llm(open_gate=True))
    sequential = [UniDM(alone, UniDMConfig.full(seed=0)).run(task) for task in tasks]
    assert [ahead for ahead, *_ in seen] == [14, 0]
    assert seen[0][1:] == seen[1][1:]
    assert seen[0][1] == result_fingerprint(sequential)
    assert seen[0][3] == alone.usage.snapshot()


def test_a_task_planned_ahead_keeps_its_place_in_line(gated_llm, line_up_engine):
    """One slot, held by ``holder``.  ``low-0`` and ``low-1`` are planned
    during its second round trip; ``high`` (priority 5) arrives after that
    and still takes the slot first.  A plan-ahead that popped the fair queue
    would have taken the low tasks out of line."""
    backend = stepped(gated_llm)
    pipeline = PlansAhead(backend, UniDMConfig.full(seed=0))
    engine = line_up_engine(EngineConfig(workers=1, max_wait=10.0))
    callers = []

    def line_up(tags, priority=0):
        def call():
            share = SHARE.set((DEFAULT_TENANT, 1.0, priority))
            try:
                engine.run(pipeline, [echo_task(tag) for tag in tags])
            finally:
                SHARE.reset(share)

        callers.append(threading.Thread(target=call))
        callers[-1].start()
        assert engine.handed.acquire(timeout=10)

    with closing(engine):
        line_up(["holder"])
        assert backend.entered.acquire(timeout=10)  # holder's first round trip
        line_up(["low-0", "low-1"])
        wait_quiet(engine._resident._loop)
        backend.turns.release()
        assert backend.entered.acquire(timeout=10)  # holder's second round trip
        wait_quiet(engine._resident._loop)
        assert len(pipeline.ahead) == 2
        line_up(["high"], priority=5)
        backend.turns.release()
        land_each_round_trip_once_quiet(
            engine, backend, lambda: not any(caller.is_alive() for caller in callers)
        )
    assert backend.tag_order() == ["holder", "high", "low-0", "low-1"]


def test_a_failed_runs_planned_tasks_are_dropped_and_its_slot_returns(gated_llm):
    """The run's first task fails its round trip while the other three wait,
    planned: the run fails with the batch's error, its plans are dropped, and
    the slot serves the next run."""
    backend = stepped(gated_llm)
    complete_batch = backend.complete_batch

    def fails_the_first_round_trip(prompts, kind="other"):
        completions = complete_batch(prompts, kind)
        if len(backend.batches) == 1:  # boom's first prompt, alone in the slot
            raise ConnectionError("boom")
        return completions

    backend.complete_batch = fails_the_first_round_trip
    pipeline = PlansAhead(backend, UniDMConfig.full(seed=0))
    with closing(ExecutionEngine(EngineConfig(workers=1, max_wait=10.0))) as engine:
        resident = engine._started()
        run = resident.submit(pipeline, [echo_task(tag) for tag in ("boom", "a", "b", "c")])
        assert backend.entered.acquire(timeout=10)
        wait_quiet(resident._loop)
        assert len(pipeline.ahead) == 3 and sorted(run.prepared) == [1, 2, 3]
        backend.turns.release()
        with pytest.raises(ConnectionError, match="boom"):
            run.future.result(timeout=10)
        assert run.prepared == {}
        after = []
        caller = threading.Thread(
            target=lambda: after.extend(engine.run(pipeline, [echo_task("after")]))
        )
        caller.start()
        land_each_round_trip_once_quiet(engine, backend, lambda: not caller.is_alive())
        assert [result.usage.calls for result in after] == [3]
        assert resident._free == 1
    assert "<a>" not in " ".join(backend.prompts)  # the planned tasks never asked


def test_close_with_tasks_planned_ahead_leaves_no_claim_held(gated_llm):
    backend = stepped(gated_llm)
    llm = CachedLLM(backend)
    pipeline = PlansAhead(llm, UniDMConfig.full(seed=0))
    engine = ExecutionEngine(EngineConfig(workers=1, max_wait=10.0))
    resident = engine._started()
    run = resident.submit(pipeline, [echo_task(f"t{index}") for index in range(3)])
    assert backend.entered.acquire(timeout=10)
    wait_quiet(resident._loop)
    assert len(pipeline.ahead) == 2 and len(llm._claims) == 1  # the admitted task's miss
    closer = threading.Thread(target=engine.close)
    closer.start()  # waits for the LLM thread, which waits for its turn
    with pytest.raises(RuntimeError, match="closed"):
        run.future.result(timeout=10)
    backend.turns.release()
    closer.join(10)
    assert not closer.is_alive()
    assert llm._claims == {} and run.prepared == {}


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
