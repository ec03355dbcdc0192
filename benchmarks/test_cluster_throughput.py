"""Benchmark: a sharded 4-worker cluster next to a single worker, and a live resize.

A mixed-spec workload against a latency-bearing backend (one round-trip per
``complete_batch`` call, as for a remote completion API) runs on 1 worker
and on 4 — each with its own engine, micro-batcher and cache shard.  The
test checks function only: no errors, every spec answered, the ring spreads
the work over at least 3 shards.  Both throughputs, the backend round trips
and their ratio are written to ``BENCH_cluster.json`` as context and are not
gated: one 48-spec batch is bounded by the ~5 serial round trips of a single
task, which one engine already overlaps across tasks, so worker count moves
it little.  Cluster throughput under sustained load is the
``pipeline_cluster`` workload of the benchmark of record (``python3 -m
bench``).  The elastic arm's two capped metrics stay gated.

Bit-parity across worker counts is enforced separately in
``tests/cluster/test_parity.py``; this benchmark measures wall-clock only.
"""

import time

from conftest import run_once
from report import write_bench

from repro.api import (
    Client,
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ImputationSpec,
    TransformationSpec,
)
from repro.datasets import load_dataset
from repro.llm import LanguageModel, SimulatedLLM

#: Simulated network round-trip cost of one batched LLM call.
LATENCY = 0.020
N_WORKERS = 4


class LatencyLLM(LanguageModel):
    """A fixed per-round-trip latency in front of a simulated backend."""

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


def _mixed_workload():
    """Mixed specs over the Restaurant benchmark: all shards get real work."""
    dataset = load_dataset("restaurant", seed=0, n_records=32, n_tasks=16)
    rows = dataset.table.to_dicts()
    specs = []
    for task in dataset.tasks:  # 16 imputation specs (masked city)
        specs.append(
            ImputationSpec(
                rows=rows, target=task.record.to_dict(), attribute=task.attribute
            )
        )
    for index, row in enumerate(rows[:16]):  # 16 phone-format transformations
        specs.append(
            TransformationSpec(
                value=str(row["phone"]),
                examples=[["212-555-0199", "(212) 555 0199"]],
                name=f"phone-{index}",
            )
        )
    for row in rows[:8]:  # 8 self-pair resolutions
        variant = dict(row)
        variant["name"] = str(row["name"]).upper()
        specs.append(EntityResolutionSpec(record_a=row, record_b=variant))
    for row in rows[8:16]:  # 8 error-detection probes
        specs.append(
            ErrorDetectionSpec(rows=rows, target=row, attribute="phone")
        )
    return dataset, specs


def _run_cluster(n_workers: int, dataset, specs):
    """One cold cluster run; returns (elapsed, results, stats, round_trips)."""
    backends = []

    def llm_factory(index: int) -> LatencyLLM:
        backend = LatencyLLM(
            SimulatedLLM(knowledge=dataset.knowledge, seed=0), LATENCY
        )
        backends.append(backend)
        return backend

    with Client.cluster(
        workers=n_workers, llm_factory=llm_factory, batch_size=8
    ) as client:
        started = time.perf_counter()
        results = client.submit_many(specs)
        elapsed = time.perf_counter() - started
        stats = client.router.stats()
    return elapsed, results, stats, sum(b.round_trips for b in backends)


def test_four_workers_spread_the_mixed_workload(benchmark):
    dataset, specs = _mixed_workload()

    t_single, single_results, _, single_trips = _run_cluster(1, dataset, specs)
    assert all(result.error is None for result in single_results)

    t_cluster = None

    def sharded():
        nonlocal t_cluster
        elapsed, results, stats, trips = _run_cluster(N_WORKERS, dataset, specs)
        t_cluster = (elapsed, results, stats, trips)
        return results

    run_once(benchmark, sharded)
    elapsed, cluster_results, stats, cluster_trips = t_cluster

    assert all(result.error is None for result in cluster_results)
    assert len(cluster_results) == len(single_results) == len(specs)
    busy_workers = [row for row in stats.workers if row.routed]
    assert len(busy_workers) >= 3, "workload failed to spread over the shards"

    throughput_single = len(specs) / t_single
    throughput_cluster = len(specs) / elapsed
    speedup = throughput_cluster / throughput_single

    payload = {
        "workload": {
            "specs": len(specs),
            "mix": {
                "imputation": 16,
                "transformation": 16,
                "entity_resolution": 8,
                "error_detection": 8,
            },
            "backend_latency_s": LATENCY,
        },
        "single_worker": {
            "elapsed_s": round(t_single, 4),
            "specs_per_s": round(throughput_single, 2),
            "llm_round_trips": single_trips,
        },
        "cluster": {
            "workers": N_WORKERS,
            "elapsed_s": round(elapsed, 4),
            "specs_per_s": round(throughput_cluster, 2),
            "llm_round_trips": cluster_trips,
            "routed_per_worker": {
                row.worker_id: row.routed for row in stats.workers
            },
        },
        "speedup": round(speedup, 3),
    }
    write_bench("cluster", payload)


def test_scale_up_under_load_migrates_minimally(benchmark, tmp_path):
    """Elastic arm: live 2 -> 4 resize mid-benchmark, zero failed requests.

    A warmed 2-worker cluster keeps serving the mixed workload while two
    workers join one after the other.  The gates (``scripts/check_bench.py``):

    * ``elastic.resize_error_rate`` == 0 — no request fails across resizes;
    * ``elastic.migration_fraction`` <= 0.6 — the *average per-resize*
      fraction of cache entries that relocated.  Consistent hashing moves
      ~1/(N+1) per join (~0.29 averaged over 2->3->4); a naive mod-N
      resharding would move ~0.7 and trip the cap.
    """
    import threading

    dataset, specs = _mixed_workload()

    def llm_factory(index: int) -> LatencyLLM:
        return LatencyLLM(
            SimulatedLLM(knowledge=dataset.knowledge, seed=0), LATENCY
        )

    outcome = {}

    def elastic_run():
        with Client.cluster(
            workers=2,
            llm_factory=llm_factory,
            batch_size=8,
            cache_dir=str(tmp_path / "shards"),
        ) as client:
            client.submit_many(specs)  # warm every shard
            entries_before = sum(
                row.cache_entries
                for row in client.router.stats().workers
                if row.cache_entries > 0
            )
            results: list = []
            stop = threading.Event()

            def pound() -> None:
                while not stop.is_set():
                    results.extend(client.submit_many(specs))

            load = threading.Thread(target=pound)
            started = time.perf_counter()
            load.start()
            try:
                for _ in range(2):  # 2 -> 3 -> 4, requests in flight
                    client.router.add_worker()
            finally:
                stop.set()
                load.join(timeout=120)
            elapsed = time.perf_counter() - started
            assert not load.is_alive()
            stats = client.router.stats()
            outcome.update(
                elapsed=elapsed,
                entries_before=entries_before,
                results=results,
                stats=stats,
                workers=client.workers(),
            )
        return results

    run_once(benchmark, elastic_run)

    stats = outcome["stats"]
    results = outcome["results"]
    assert results, "the load thread never completed a batch"
    errors = [r for r in results if r.error is not None]
    resize_error_rate = len(errors) / len(results)
    assert resize_error_rate == 0.0, f"{len(errors)} requests failed mid-resize"
    assert stats.resizes == 2
    assert outcome["workers"] == (4, 4)
    migration_fraction = (
        stats.migrations / (stats.resizes * outcome["entries_before"])
        if outcome["entries_before"]
        else 0.0
    )
    assert 0.0 < migration_fraction <= 0.6

    from report import load_bench

    payload = load_bench("cluster")
    payload["elastic"] = {
        "workers_before": 2,
        "workers_after": 4,
        "elapsed_s": round(outcome["elapsed"], 4),
        "requests_during_resize": len(results),
        "resize_error_rate": resize_error_rate,
        "entries_before": outcome["entries_before"],
        "entries_migrated": stats.migrations,
        "migration_fraction": round(migration_fraction, 4),
    }
    write_bench("cluster", payload)
