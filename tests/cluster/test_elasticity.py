"""Elastic cluster transitions, proven under deterministic fault injection.

Every transition the elastic ring supports — live join, drained leave,
crash + supervised restart, autoscale up/down — must leave results
bit-identical to a single engine's ``run`` (the parity contract of
``tests/cluster/test_parity.py`` extended to *moving* worker sets), migrate
only the consistent-hash-minimal shard entries, and keep readiness healthy.
The :class:`repro.cluster.FaultInjector` harness drives the failure modes
on a schedule (seeded, reproducible) instead of waiting for luck.
"""

import itertools
import threading
import time

import pytest

from cluster_testing import FULL_CONFIG, BillingLLM, PromptPureLLM, fingerprint, submit

from repro.api import TransformationSpec
from repro.cluster import (
    ClusterError,
    Autoscaler,
    FaultInjector,
    HashRing,
    Router,
    Supervisor,
    Worker,
)
from repro.obs import configure_default_event_log
from repro.obs.metrics import get_default_registry
from repro.serving import prompt_key


def make_router(n_workers: int = 2, **overrides) -> Router:
    options = dict(
        llm_factory=lambda i: PromptPureLLM(),
        config=FULL_CONFIG,
        health_interval=None,  # deterministic: no background sweep
    )
    options.update(overrides)
    return Router.local(n_workers, **options)


def reference_fingerprint(specs) -> list:
    """What a single-engine run answers — the bit-parity oracle."""
    with make_router(1) as router:
        return fingerprint(submit(router, specs))


def llm_calls() -> int:
    return int(get_default_registry().counter("llm.calls").value)


# ------------------------------------------------------------------ live join
def test_live_join_is_bit_identical_and_migrates_entries(tmp_path, mixed_specs):
    reference = reference_fingerprint(mixed_specs)
    with make_router(2, cache_dir=str(tmp_path)) as router:
        assert fingerprint(submit(router, mixed_specs)) == reference
        joined = router.add_worker()
        assert joined in router.live_workers
        assert len(router.live_workers) == 3
        # The joiner's shard was warmed by migration before it opened, so
        # re-running the workload recomputes nothing anywhere.
        before = llm_calls()
        assert fingerprint(submit(router, mixed_specs)) == reference
        assert llm_calls() == before
        stats = router.stats()
        assert stats.resizes == 1
        assert stats.migrations > 0
        assert router.monitor.ready()[0]


def test_one_dispatch_runs_a_group_on_every_joined_worker_at_once():
    """The router's dispatch pool grows with the ring: after nine joins to
    one worker, all ten groups of one dispatch are in flight together."""
    barrier = threading.Barrier(10, timeout=10)

    class Gated(Worker):
        def __init__(self, inner):
            self.inner = inner
            self.worker_id = inner.worker_id

        def submit(self, specs, priority=0, **share):
            barrier.wait()  # broken unless all ten submits are in flight
            return self.inner.submit(specs, priority, **share)

        def ping(self):
            return self.inner.ping()

        def close(self):
            self.inner.close()

    with make_router(1, worker_decorator=Gated) as router:
        for _ in range(9):
            router.add_worker()
        owned: dict = {}
        for index in itertools.count():
            spec = TransformationSpec(value=f"v{index}", examples=[["a", "b"]])
            owned.setdefault(router.worker_for(spec), spec)
            if len(owned) == 10:
                break
        results = submit(router, list(owned.values()))
    assert all(result.error is None for result in results)
    assert barrier.n_waiting == 0 and not barrier.broken


def test_join_migration_is_hash_minimal(tmp_path, mixed_specs):
    with make_router(2, cache_dir=str(tmp_path)) as router:
        submit(router, mixed_specs)
        before = HashRing(router.live_workers)
        keys = [key for worker in router.workers.values() for key, _ in worker.shard().items()]
        joined = router.add_worker()
        # Entries are placed by their own prompt key and the shards are
        # disjoint, so a join moves exactly the entries the grown ring
        # places on the joiner, each once.  Consistent hashing makes that
        # ~1/3 of them at a third worker — far below the ~2/3 a naive mod-N
        # resharding would relocate.
        grown = before.with_node(joined)
        expected = sum(grown.node_for(key) == joined for key in keys)
        assert router.stats().migrations == expected
        assert 0 < expected <= 0.6 * len(keys)
        # The sources dropped what moved: every shard holds what it owns.
        for worker_id, worker in router.workers.items():
            assert all(grown.node_for(key) == worker_id for key, _ in worker.shard().items())


def test_join_and_leave_migrate_entries_with_their_counts(tmp_path, mixed_specs):
    """A moved entry keeps the counts the backend billed for it: after a
    join and a leave every shard entry is still exactly that backend's
    completion, and a rerun is served from the shards with the same tokens."""
    billed: dict = {}

    def entries(router) -> dict:
        return {
            key: entry for worker in router.workers.values() for key, entry in worker.shard().items()
        }

    with make_router(2, cache_dir=str(tmp_path), llm_factory=lambda i: BillingLLM(billed)) as router:
        tokens = [result.tokens for result in submit(router, mixed_specs)]
        expected = {
            prompt_key(prompt): (c.text, c.prompt_tokens, c.completion_tokens)
            for prompt, c in billed.items()
        }
        assert entries(router) == expected
        joined = router.add_worker()
        assert router.stats().migrations > 0 and entries(router) == expected
        assert router.remove_worker(joined) > 0 and entries(router) == expected
        before = llm_calls()
        assert [result.tokens for result in submit(router, mixed_specs)] == tokens
        assert llm_calls() == before


def test_concurrent_joins_take_distinct_ids():
    """Two ``add_worker`` calls at once: each takes its id at entry.

    At the parent the lowest free id was taken only at registration, so both
    joins built ``worker-02``; the first one built was overwritten, never
    closed, and the router ended with three workers after two resizes.
    """
    with make_router(2) as router:
        build = router._worker_factory
        building = threading.Semaphore(0)
        release = threading.Event()

        def gated(worker_id):
            building.release()
            assert release.wait(10)
            return build(worker_id)

        router._worker_factory = gated
        joined: list = []
        joins = [
            threading.Thread(target=lambda: joined.append(router.add_worker())) for _ in range(2)
        ]
        for join in joins:
            join.start()
        for _ in joins:  # both joins are building their workers
            assert building.acquire(timeout=10)
        release.set()
        for join in joins:
            join.join(10)
        assert sorted(joined) == ["worker-02", "worker-03"]
        assert len(router.workers) == 4 and router.stats().resizes == 2

        def broken(worker_id):
            raise RuntimeError("no worker today")

        # A join that fails gives its id back.
        router._worker_factory = broken
        with pytest.raises(RuntimeError):
            router.add_worker()
        router._worker_factory = build
        assert router.add_worker() == "worker-04"


def test_join_under_inflight_load_loses_nothing(tmp_path, mixed_specs):
    reference = reference_fingerprint(mixed_specs)
    with make_router(2, cache_dir=str(tmp_path)) as router:
        results: list = []
        errors: list = []

        def pound() -> None:
            for _ in range(6):
                batch = submit(router, mixed_specs)
                results.append(fingerprint(batch))
                errors.extend(r for r in batch if r.error is not None)

        load = threading.Thread(target=pound)
        load.start()
        router.add_worker()
        load.join(timeout=60)
        assert not load.is_alive()
        assert not errors, "a resize failed in-flight requests"
        assert all(item == reference for item in results)


# -------------------------------------------------------------- drained leave
def test_drained_leave_migrates_shard_to_survivors(tmp_path, mixed_specs):
    reference = reference_fingerprint(mixed_specs)
    with make_router(3, cache_dir=str(tmp_path)) as router:
        assert fingerprint(submit(router, mixed_specs)) == reference
        victim = sorted(router.live_workers)[-1]
        migrated = router.remove_worker(victim)
        assert victim not in router.workers
        assert len(router.live_workers) == 2
        assert router.stats().draining == 0
        # Whatever the leaver owned now lives on the survivors: rerunning
        # the workload is all cache hits, zero backend calls.
        before = llm_calls()
        assert fingerprint(submit(router, mixed_specs)) == reference
        assert llm_calls() == before
        assert migrated >= 0
        assert router.monitor.ready()[0]


def test_leave_waits_for_slow_inflight_work(tmp_path, mixed_specs):
    injector = FaultInjector(seed=3)
    with make_router(
        2,
        cache_dir=str(tmp_path),
        worker_decorator=injector.wrap,
        faults=injector,
    ) as router:
        reference = fingerprint(submit(router, mixed_specs))
        victim = sorted(router.live_workers)[0]
        injector.slow_drain(victim, 0.2)
        outcome: dict = {}
        reached = threading.Event()
        on_submit = injector.on_submit

        def noting_on_submit(worker) -> None:
            if worker.worker_id == victim:
                reached.set()
            on_submit(worker)

        injector.on_submit = noting_on_submit

        def pound() -> None:
            outcome["fp"] = fingerprint(submit(router, mixed_specs))

        load = threading.Thread(target=pound)
        load.start()
        # The slow submit has reached the victim before the drain starts.
        assert reached.wait(timeout=30)
        router.remove_worker(victim)
        load.join(timeout=60)
        assert not load.is_alive()
        assert outcome["fp"] == reference
        assert any(entry["fault"] == "slow_drain" for entry in injector.log)


def test_last_live_worker_cannot_be_removed():
    with make_router(1) as router:
        (only,) = router.live_workers
        with pytest.raises(ClusterError):
            router.remove_worker(only)


# ---------------------------------------------------------- crash + restart
def test_crash_mid_pipeline_requeues_exactly_once(tmp_path, mixed_specs):
    # Oracle: a cold 2-worker run with no faults makes exactly this many
    # backend calls for the workload.
    with make_router(2, cache_dir=str(tmp_path / "oracle")) as router:
        before = llm_calls()
        reference = fingerprint(submit(router, mixed_specs))
        cold_calls = llm_calls() - before

    injector = FaultInjector(seed=11)
    log = configure_default_event_log(capacity=8192)
    try:
        with make_router(
            2,
            cache_dir=str(tmp_path / "faulty"),
            worker_decorator=injector.wrap,
            faults=injector,
        ) as router:
            victim, nth = injector.plan_kill(router.live_workers, max_submit=1)
            before = llm_calls()
            results = submit(router, mixed_specs)
            # Bit-identical despite the crash, and exactly once: the victim
            # died *before* any backend work and the requeued group ran once
            # on the survivor, so the crash run can never call the backend
            # more than the crash-free oracle (it may call *less*: a prompt
            # two shards would each compute is computed once when one
            # survivor owns everything).
            assert fingerprint(results) == reference
            assert 0 < llm_calls() - before <= cold_calls
            stats = router.stats()
            assert stats.deaths == 1
            assert stats.requeues > 0
            requeues = log.events(kind="router.requeue")
            assert len(requeues) == 1
            assert requeues[0]["worker"] == victim
            assert injector.log == [
                {"fault": "kill_at_submit", "worker": victim, "submit": nth}
            ]
    finally:
        configure_default_event_log(capacity=8192)


def test_supervisor_restart_replays_shard_with_zero_misses(tmp_path, mixed_specs):
    injector = FaultInjector(seed=11)
    log = configure_default_event_log(capacity=8192)
    try:
        with make_router(
            2,
            cache_dir=str(tmp_path),
            worker_decorator=injector.wrap,
            faults=injector,
        ) as router:
            reference = fingerprint(submit(router, mixed_specs))
            victim, _ = injector.plan_kill(router.live_workers, max_submit=1)
            submit(router, mixed_specs)  # the crash + requeue round
            assert victim not in router.live_workers
            ready, detail = router.monitor.ready()
            assert not ready  # a crash (unlike a drain) degrades readiness
            assert detail["workers"]["live"] == 1

            supervisor = Supervisor(router)
            assert supervisor.check_once() == [victim]
            assert victim in router.live_workers
            assert router.monitor.ready()[0]
            assert router.stats().restarts == 1
            restarts = log.events(kind="cluster.restart")
            assert [e["worker"] for e in restarts] == [victim]

            # Warm-restart replay: the revived worker re-opened its shard,
            # so re-submitting the workload costs zero backend calls.
            before = llm_calls()
            assert fingerprint(submit(router, mixed_specs)) == reference
            assert llm_calls() == before
    finally:
        configure_default_event_log(capacity=8192)


def test_supervisor_backoff_caps_and_gives_up():
    clock = {"now": 100.0}
    with make_router(2) as router:
        supervisor = Supervisor(
            router,
            backoff_base=0.5,
            backoff_cap=4.0,
            max_restarts=3,
            clock=lambda: clock["now"],
        )
        assert supervisor.backoff(1) == 0.5
        assert supervisor.backoff(2) == 1.0
        assert supervisor.backoff(4) == 4.0  # capped
        victim = sorted(router.live_workers)[0]
        for expected_attempts in (1, 2, 3):
            router.workers[victim].kill()
            assert supervisor.check_once() == [victim]
            assert supervisor._attempts[victim] == expected_attempts
            clock["now"] += 60.0  # past any backoff window
        router.workers[victim].kill()
        assert supervisor.check_once() == []  # max_restarts reached


def test_supervisor_respects_backoff_window():
    clock = {"now": 0.0}
    with make_router(2) as router:
        supervisor = Supervisor(
            router, backoff_base=10.0, clock=lambda: clock["now"]
        )
        victim = sorted(router.live_workers)[0]
        router.workers[victim].kill()
        assert supervisor.check_once() == [victim]
        router.workers[victim].kill()
        assert supervisor.check_once() == []  # inside the 10s window
        clock["now"] = 11.0
        assert supervisor.check_once() == [victim]


def test_death_detection_is_idempotent_across_sweep_and_submit(mixed_specs):
    # Satellite: a sweep and a failed submit can discover the same corpse;
    # the death must be counted once, and a revived worker must be immune
    # to stale reports from before its restart.
    with make_router(2) as router:
        victim = sorted(router.live_workers)[0]
        stale_generation = router._generation[victim]
        router.workers[victim].kill()
        submit(router, mixed_specs)  # failed submit discovers it
        router.check_health()  # ...and so does a sweep, concurrently-ish
        router.check_health()
        assert router.stats().deaths == 1
        revived = Supervisor(router).check_once()
        assert revived == [victim]
        # A stale report captured before the restart is inert.
        router._mark_dead(victim, stale_generation)
        assert victim in router.live_workers
        assert router.stats().deaths == 1


def test_close_joins_the_health_sweep_thread(mixed_specs):
    before = set(threading.enumerate())
    router = make_router(2, health_interval=0.05)
    (thread,) = [
        thread
        for thread in set(threading.enumerate()) - before
        if thread.name == "repro-router-sweep"
    ]
    submit(router, mixed_specs)
    router.close()
    assert not thread.is_alive()


# ------------------------------------------------------------------ autoscale
def autoscaling_router(tmp_path, clock) -> "tuple[Router, Autoscaler]":
    router = make_router(2, cache_dir=str(tmp_path))
    autoscaler = Autoscaler(
        router,
        min_workers=1,
        max_workers=3,
        scale_up_at=4.0,
        scale_down_at=0.5,
        window="10s",
        cooldown=30.0,
        clock=lambda: clock["now"],
    )
    return router, autoscaler


def drive_load_signal(router: Router, inflight: float) -> None:
    """Pin the load gauge and take enough samples to fill a window."""
    gauge = get_default_registry().gauge("router.inflight")
    gauge.set(inflight)
    router.monitor.sampler.sample()
    router.monitor.sampler.sample()


def test_autoscaler_scales_up_then_down_with_cooldown(tmp_path, mixed_specs):
    reference = reference_fingerprint(mixed_specs)
    clock = {"now": 1000.0}
    with make_router(2, cache_dir=str(tmp_path)) as router:
        # One fake clock drives both the cooldown and the sampler windows,
        # so advancing it really ages the old load samples out of view.
        router.monitor.sampler._clock = lambda: clock["now"]
        autoscaler = Autoscaler(
            router,
            min_workers=1,
            max_workers=3,
            scale_up_at=4.0,
            scale_down_at=0.5,
            cooldown=30.0,
            clock=lambda: clock["now"],
        )
        submit(router, mixed_specs)

        drive_load_signal(router, inflight=20.0)  # 10 per live worker
        assert autoscaler.decide() == "up"
        assert autoscaler.tick() == "up"
        assert len(router.live_workers) == 3
        assert router.monitor.ready()[0]

        # Cooldown: another saturated tick does nothing yet.
        assert autoscaler.tick() is None
        assert len(router.live_workers) == 3

        clock["now"] += 31.0
        drive_load_signal(router, inflight=20.0)
        assert autoscaler.tick() is None  # at max_workers already

        clock["now"] += 31.0
        drive_load_signal(router, inflight=0.0)
        assert autoscaler.decide() == "down"
        assert autoscaler.tick() == "down"
        assert len(router.live_workers) == 2
        assert router.monitor.ready()[0]
        # Results stay bit-identical across the whole up/down cycle.
        assert fingerprint(submit(router, mixed_specs)) == reference


def test_autoscaler_holds_inside_the_hysteresis_band(tmp_path):
    clock = {"now": 0.0}
    with make_router(2, cache_dir=str(tmp_path)) as router:
        autoscaler = Autoscaler(
            router,
            min_workers=1,
            max_workers=3,
            scale_up_at=4.0,
            scale_down_at=0.5,
            cooldown=0.0,
            clock=lambda: clock["now"],
        )
        drive_load_signal(router, inflight=4.0)  # 2 per worker: in the band
        assert autoscaler.decide() is None
        assert autoscaler.tick() is None
        assert len(router.live_workers) == 2


def test_autoscaler_rejects_inverted_thresholds():
    with make_router(1) as router:
        with pytest.raises(ValueError):
            Autoscaler(router, scale_up_at=1.0, scale_down_at=2.0)


# ------------------------------------------------------------ fault injection
def test_plan_kill_is_seed_reproducible():
    workers = {"worker-00", "worker-01", "worker-02"}
    plans = [FaultInjector(seed=7).plan_kill(workers) for _ in range(3)]
    assert len(set(plans)) == 1  # same seed, same schedule, every time
    other = FaultInjector(seed=8).plan_kill(workers)
    assert isinstance(other[0], str) and 1 <= other[1] <= 5


def test_torn_migration_costs_at_most_one_entry(tmp_path, mixed_specs):
    reference = reference_fingerprint(mixed_specs)
    injector = FaultInjector(seed=5)
    with make_router(
        2, cache_dir=str(tmp_path), faults=injector
    ) as router:
        submit(router, mixed_specs)
        injector.torn_migration()
        router.add_worker()
        torn = [e for e in injector.log if e["fault"] == "torn_migration"]
        assert len(torn) == 1
        # The torn trailing line is skipped by the loader: results stay
        # bit-identical, and at most one entry needs recomputation.
        assert fingerprint(submit(router, mixed_specs)) == reference


def test_hang_ping_does_not_kill_a_live_worker(tmp_path):
    injector = FaultInjector(seed=2)
    with make_router(
        2, worker_decorator=injector.wrap, faults=injector
    ) as router:
        victim = sorted(router.live_workers)[0]
        injector.hang_ping(victim, 0.2)
        started = time.monotonic()
        alive = router.check_health()
        assert time.monotonic() - started >= 0.2  # the stall really happened
        assert alive[victim] is True  # gray failure, not a death
        assert victim in router.live_workers
        assert any(entry["fault"] == "hang_ping" for entry in injector.log)
