"""Parity: cluster execution is bit-identical to a single engine.

The determinism contract of the serving engine (``repro/serving/engine.py``)
says a result is a pure function of its task given a prompt-pure backend, so
results are bit-identical at any batch size and worker count.  The cluster
extends that guarantee across shards, and these tests enforce it three ways:

1. cluster ``submit_many`` ≡ single-engine ``Client.local`` ``submit_many``
   ≡ sequential ``UniDM.run`` over the same mixed workload;
2. a restarted cluster re-opens its per-worker persistent shards — disjoint,
   each holding the prompts the ring places on its worker — and reproduces
   the first run bit-for-bit *without a single LLM miss* (affinity across
   restarts);
3. ``CachedLLM`` statistics stay consistent under the router (the satellite
   regression: counters add up per shard and in aggregate).
"""

from cluster_testing import FULL_CONFIG, PromptPureLLM, fingerprint, make_mixed_specs

from repro.api import Client
from repro.api.results import TaskResult
from repro.cluster import HashRing
from repro.core import UniDM
from repro.datasets import load_dataset


def test_cluster_matches_single_engine_bitwise(mixed_specs):
    with Client.local(llm=PromptPureLLM(), config=FULL_CONFIG) as local:
        single_engine = local.submit_many(mixed_specs)
    sequential_pipeline = UniDM(PromptPureLLM(), FULL_CONFIG)
    sequential = [
        TaskResult.from_manipulation(sequential_pipeline.run(spec.to_task()))
        for spec in mixed_specs
    ]
    for n_workers in (2, 3, 5):
        with Client.cluster(
            workers=n_workers,
            llm_factory=lambda i: PromptPureLLM(),
            config=FULL_CONFIG,
        ) as cluster:
            sharded = cluster.submit_many(mixed_specs)
            spread = {
                row.worker_id for row in cluster.router.stats().workers if row.routed
            }
        assert fingerprint(sharded) == fingerprint(single_engine), n_workers
        assert fingerprint(sharded) == fingerprint(sequential), n_workers
        assert len(spread) > 1, "workload landed on a single shard"


def test_restarted_cluster_replays_from_disjoint_shards(tmp_path):
    specs = make_mixed_specs(3)
    cache_dir = str(tmp_path / "shards")

    def build():
        return Client.cluster(
            workers=3,
            llm_factory=lambda i: PromptPureLLM(),
            config=FULL_CONFIG,
            cache_dir=cache_dir,
        )

    with build() as cold:
        first = cold.submit_many(specs)
        cold_rows = cold.router.stats().workers
        assert sum(row.cache_misses for row in cold_rows) > 0
        # Every worker persisted its own shard directory, and every entry of
        # a shard is one its worker owns (the ring's node for its cache
        # key): the shards are disjoint, whichever worker asked the prompt.
        ring = HashRing(row.worker_id for row in cold_rows)
        keys = []
        for worker_id, worker in cold.router.workers.items():
            shard_keys = [key for key, _ in worker.shard().items()]
            assert shard_keys, f"{worker_id} owns no entry"
            assert {ring.node_for_digest(key) for key in shard_keys} == {worker_id}
            keys.extend(shard_keys)
        assert len(keys) == len(set(keys))

    with build() as warm:
        second = warm.submit_many(specs)
        warm_rows = warm.router.stats().workers
    assert fingerprint(second) == fingerprint(first)
    # Every prompt of the rerun came out of a re-opened persistent shard.
    assert sum(row.cache_misses for row in warm_rows) == 0
    assert sum(row.persistent_hits for row in warm_rows) > 0


def test_cached_llm_stats_stay_consistent_under_router(mixed_specs):
    """Satellite regression: per-shard cache counters add up under routing."""
    with Client.cluster(
        workers=3, llm_factory=lambda i: PromptPureLLM(), config=FULL_CONFIG
    ) as client:
        client.submit_many(mixed_specs)
        first = client.router.stats()
        client.submit_many(mixed_specs)
        second = client.router.stats()

    # Aggregates are exactly the per-worker sums.
    for snapshot in (first, second):
        assert snapshot.cache_hits == sum(r.cache_hits for r in snapshot.workers)
        assert snapshot.cache_misses == sum(r.cache_misses for r in snapshot.workers)
    # The rerun re-issued the same prompts: misses frozen, hits grew by
    # exactly the number of prompts the first run looked up per shard.
    assert second.cache_misses == first.cache_misses
    by_id_first = {r.worker_id: r for r in first.workers}
    for row in second.workers:
        cold = by_id_first[row.worker_id]
        assert row.cache_hits - cold.cache_hits == cold.cache_hits + cold.cache_misses
        assert 0.0 <= row.hit_rate <= 1.0


def test_cluster_parity_on_dataset_imputation_workload():
    """End-to-end: dataset imputation specs, cluster vs single engine."""
    from repro.api import ImputationSpec

    dataset = load_dataset("restaurant", seed=0, n_records=40, n_tasks=8)
    rows = dataset.table.to_dicts()
    specs = [
        ImputationSpec(rows=rows, target=task.record.to_dict(), attribute=task.attribute)
        for task in dataset.tasks
    ]
    with Client.local(llm=PromptPureLLM(), config=FULL_CONFIG) as local:
        expected = local.submit_many(specs)
    with Client.cluster(
        workers=4, llm_factory=lambda i: PromptPureLLM(), config=FULL_CONFIG
    ) as cluster:
        observed = cluster.submit_many(specs)
    assert fingerprint(observed) == fingerprint(expected)
