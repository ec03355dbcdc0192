"""Router behaviour: affinity, failover, wire front, flow fan-out, stats."""

import pytest

from cluster_testing import FULL_CONFIG, PromptPureLLM, fingerprint, make_mixed_specs

from repro.api import Client, PipelineSpec, TransformationSpec
from repro.cluster import ClusterError, Router, Worker
from repro.serving.service import InvalidRequest


def make_router(n_workers: int = 3, **overrides) -> Router:
    options = dict(llm_factory=lambda i: PromptPureLLM(), config=FULL_CONFIG)
    options.update(overrides)
    return Router.local(n_workers, **options)


# ---------------------------------------------------------------- routing
def test_same_spec_always_routes_to_the_same_worker():
    with make_router() as router:
        spec = TransformationSpec(value="19990415", examples=[["a", "b"]])
        owners = {router.worker_for(spec) for _ in range(10)}
        assert len(owners) == 1


def test_results_keep_submission_order(mixed_specs):
    with make_router() as router:
        results = router.submit_specs(mixed_specs)
        assert len(results) == len(mixed_specs)
        types = [result.task_type for result in results]
        # Each round of the mixed workload repeats the seven types in order.
        assert types[:7] == types[7:14]
        assert all(result.error is None for result in results)


def test_repeated_submission_hits_the_owning_workers_cache(mixed_specs):
    with make_router() as router:
        router.submit_specs(mixed_specs)
        cold = {
            row.worker_id: (row.cache_hits, row.cache_misses)
            for row in router.stats().workers
        }
        router.submit_specs(mixed_specs)
        for row in router.stats().workers:
            hits, misses = cold[row.worker_id]
            # Affinity: the rerun added hits only; no shard saw a new miss.
            assert row.cache_misses == misses
            if misses:  # this worker owns at least one spec
                assert row.cache_hits > hits


# --------------------------------------------------------------- failover
def test_worker_death_requeues_onto_survivors(mixed_specs):
    from repro.obs import configure_default_event_log

    log = configure_default_event_log(capacity=8192)
    try:
        with make_router(3) as router:
            baseline = fingerprint(router.submit_specs(mixed_specs))
            victim_id = sorted(router.live_workers)[0]
            router.workers[victim_id].kill()
            results = router.submit_specs(mixed_specs)
            assert fingerprint(results) == baseline  # pure-function regime
            assert victim_id not in router.live_workers
            stats = router.stats()
            assert stats.deaths == 1
            assert stats.requeues > 0
            dead_rows = [row for row in stats.workers if not row.alive]
            assert [row.worker_id for row in dead_rows] == [victim_id]
            # The incident landed in the structured event log.
            deaths = log.events(kind="worker.death")
            assert [e["worker"] for e in deaths] == [victim_id]
            assert deaths[0]["survivors"] == 2
            requeues = log.events(kind="router.requeue")
            assert requeues and all(e["worker"] == victim_id for e in requeues)
    finally:
        configure_default_event_log(capacity=8192)


def test_all_workers_dead_raises_cluster_error():
    with make_router(2) as router:
        for worker in router.workers.values():
            worker.kill()
        with pytest.raises(ClusterError):
            router.submit_specs([TransformationSpec(value="x", examples=[["a", "b"]])])


def test_check_health_unrings_dead_workers():
    with make_router(2) as router:
        victim_id = sorted(router.live_workers)[0]
        router.workers[victim_id].kill()
        alive = router.check_health()
        assert alive[victim_id] is False
        assert victim_id not in router.live_workers
        assert len(router.live_workers) == 1


# -------------------------------------------------------------- wire front
def test_handle_batch_mirrors_service_semantics():
    with make_router(2) as router:
        responses = router.handle_batch(
            [
                {"v": 2, "id": 1, "task": {"type": "transformation",
                                           "value": "x", "examples": [["a", "b"]]}},
                {"v": 2, "id": 2, "task": {"type": "transformation"}},  # missing field
                {"id": 3, "type": "transformation", "value": "x",
                 "examples": [["a", "b"]]},  # flat v1
                InvalidRequest("bad JSON: boom"),
                {"v": 2, "id": 5, "task": {"type": "no_such_task"}},
            ]
        )
        assert [r.get("id") for r in responses] == [1, 2, 3, None, 5]
        assert responses[0]["ok"] is True
        assert responses[1]["error"]["code"] == "invalid_request"
        assert responses[1]["error"]["field"] == "examples"
        assert responses[2]["ok"] is True and "answer" in responses[2]  # v1 shape
        assert "v" not in responses[2]
        # Unparseable lines claim no version, so the error keeps the flat
        # v1 shape (a bare string) — the same behaviour as the service.
        assert responses[3]["ok"] is False
        assert responses[3]["error"] == "bad JSON: boom"
        assert responses[4]["error"]["code"] == "unknown_task_type"


def test_local_closes_the_workers_built_before_a_failed_build():
    """A router that was never made owns nothing: the caller gets the error
    and no running engines."""
    built = []

    def remember(worker):
        built.append(worker)
        return worker

    def llm_factory(index):
        if index == 2:
            raise RuntimeError("no backend for the third worker")
        return PromptPureLLM()

    with pytest.raises(RuntimeError, match="third worker"):
        Router.local(3, llm_factory=llm_factory, worker_decorator=remember)
    assert [worker.worker_id for worker in built] == ["worker-00", "worker-01"]
    assert not any(worker.ping() for worker in built)


def test_cluster_client_is_specs_only():
    with Client.cluster(
        workers=2, llm_factory=lambda i: PromptPureLLM(), config=FULL_CONFIG
    ) as client:
        from repro.api.errors import TransportError
        from repro.core.tasks import TransformationTask

        assert client.router.live_workers == {"worker-00", "worker-01"}
        with pytest.raises(TransportError):
            client.run_task(TransformationTask("x", [("a", "b")]))
    with Client.local(llm=PromptPureLLM(), config=FULL_CONFIG) as local:
        from repro.api.errors import TransportError

        with pytest.raises(TransportError):
            local.router


# ------------------------------------------------------------- flow fan-out
def test_pipeline_spec_fans_out_across_workers():
    rows = [
        {"name": f"shop-{i % 4}", "city": None if i % 2 else "rome"}
        for i in range(12)
    ]
    spec = PipelineSpec(
        rows=rows,
        stages=[{"op": "impute", "column": "city"}],
        partition_size=4,
    )
    with make_router(3) as router:
        results = router.submit_specs([spec])
        assert len(results) == 1
        payload = results[0].answer
        assert payload["columns"] == ["name", "city"]
        assert len(payload["rows"]) == len(rows)
        assert all(row["city"] is not None for row in payload["rows"])
        # The plan itself never hashes to one worker: its compiled specs do.
        routed = {row.worker_id: row.routed for row in router.stats().workers}
        assert sum(routed.values()) > 0
        assert len([count for count in routed.values() if count]) >= 2


def test_cluster_client_matches_local_client_on_pipeline_spec():
    rows = [{"name": f"s-{i}", "city": None if i % 3 else "rome"} for i in range(9)]
    spec = PipelineSpec(
        rows=rows, stages=[{"op": "impute", "column": "city"}], partition_size=3
    )
    with Client.local(llm=PromptPureLLM(), config=FULL_CONFIG) as local:
        expected = local.submit(spec).answer
    with Client.cluster(
        workers=3, llm_factory=lambda i: PromptPureLLM(), config=FULL_CONFIG
    ) as cluster:
        observed = cluster.submit(spec).answer
    assert observed["rows"] == expected["rows"]
    assert observed["columns"] == expected["columns"]


def test_pipeline_request_counts_once_in_requests_served():
    """The nested wave submissions of a plan must not inflate the counter."""
    rows = [{"name": f"s-{i}", "city": None if i % 2 else "rome"} for i in range(8)]
    spec = PipelineSpec(
        rows=rows, stages=[{"op": "impute", "column": "city"}], partition_size=2
    )
    with make_router(2) as router:
        router.submit_specs([spec])
        assert router.requests_served == 1  # matches the single service
        assert router.stats().routed > 1  # ...while the waves still routed


def test_a_plans_waves_reach_the_workers_at_the_plans_priority():
    calls: list = []

    class RecordingWorker(Worker):
        def __init__(self, inner):
            self.inner = inner
            self.worker_id = inner.worker_id

        def submit(self, requests, priority=0, **share):
            calls.append((priority, [request.get("priority") for request in requests]))
            return self.inner.submit(requests, priority, **share)

        def ping(self):
            return self.inner.ping()

        def close(self):
            self.inner.close()

    rows = [{"name": f"s-{i}", "city": None if i % 2 else "rome"} for i in range(8)]
    spec = PipelineSpec(
        rows=rows, stages=[{"op": "impute", "column": "city"}], partition_size=4
    )
    with make_router(2, worker_decorator=RecordingWorker) as router:
        assert router.submit_specs([spec], priority=7)[0].error is None
    # Every wave of the plan, as argument and in every envelope — what the
    # single service does by running a plan's waves inside its share.
    assert calls
    for priority, envelope_priorities in calls:
        assert priority == 7
        assert envelope_priorities and set(envelope_priorities) == {7}



def test_a_plans_wave_fans_out_once_not_once_per_partition():
    calls: list = []

    class RecordingWorker(Worker):
        def __init__(self, inner):
            self.inner = inner
            self.worker_id = inner.worker_id

        def submit(self, requests, priority=0, **share):
            calls.append((self.worker_id, len(requests)))
            return self.inner.submit(requests, priority, **share)

        def ping(self):
            return self.inner.ping()

        def close(self):
            self.inner.close()

    rows = [
        {"name": f"shop-{i}", "city": None if i % 3 else "rome", "phone": f"06-{i}"}
        for i in range(12)
    ]
    spec = PipelineSpec(
        rows=rows,
        stages=[
            {"op": "detect_errors", "column": "phone"},
            {"op": "impute", "column": "city"},
            {
                "op": "transform",
                "column": "phone",
                "examples": [["06-1", "+39 06 1"]],
                "output_column": "intl",
            },
        ],
        partition_size=4,
    )
    with Client.local(llm=PromptPureLLM(), config=FULL_CONFIG) as local:
        expected = local.submit(spec).answer
    with make_router(4, worker_decorator=RecordingWorker) as router:
        (result,) = router.submit_specs([spec])
    assert result.error is None
    report = result.answer["report"]
    assert report["waves"] == 2
    # Three partitions, two waves: each wave is one dispatch over the ring
    # (<= 4 worker calls), not one per partition.
    assert 0 < len(calls) <= 4 * report["waves"]
    assert sum(n for _, n in calls) == report["submitted"]
    assert result.answer["rows"] == expected["rows"]
    assert result.answer["columns"] == expected["columns"]


# ------------------------------------------------------------------- stats
def test_stats_aggregate_routed_and_cache_counters(mixed_specs):
    with make_router(3) as router:
        router.submit_specs(mixed_specs)
        stats = router.stats()
        assert stats.routed == len(mixed_specs)
        assert stats.routed == sum(row.routed for row in stats.workers)
        assert stats.alive_workers == 3
        assert stats.cache_hits + stats.cache_misses > 0
        payload = stats.to_payload()
        assert payload["routed"] == len(mixed_specs)
        assert len(payload["workers"]) == 3
        assert "workers alive" in stats.describe()


# --------------------------------------------------------------- lifecycle
def test_duplicate_worker_ids_rejected():
    with make_router(1) as router:
        worker = next(iter(router.workers.values()))
        with pytest.raises(ValueError):
            Router([worker, worker])


def test_router_needs_workers():
    with pytest.raises(ValueError):
        Router([])


def test_close_is_idempotent_and_kills_submissions(mixed_specs):
    router = make_router(2)
    router.submit_specs(mixed_specs[:3])
    router.close()
    router.close()
    with pytest.raises(ClusterError):
        router.submit_specs(mixed_specs[:1])
