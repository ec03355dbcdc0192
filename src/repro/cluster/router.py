"""The cluster router — sharded serving with cache affinity.

:class:`Router` is a :class:`~repro.serving.frontdoor.FrontDoor` (the same
``handle_batch`` / ``submit_specs`` / ``stats_snapshot`` / ``close`` as the
single-process service, so ``python -m repro serve --cluster`` and
:meth:`repro.api.Client.cluster` hold it exactly like a service) whose *run*
fans :class:`~repro.api.specs.TaskSpec` batches out over N workers (threads
in-process, or spawned ``python -m repro serve`` processes speaking the v2
TCP protocol).  Placement is a consistent-hash ring over the spec's
canonical wire form (:mod:`repro.cluster.hashing`), so:

* the same spec always lands on the same worker — its completions live in
  that worker's in-memory LRU and on-disk
  :class:`~repro.serving.cache.PersistentCache` shard, and cache hits never
  cross a shard boundary;
* shard contents stay disjoint at the spec level — a worker only ever warms
  prompts arising from specs it owns, so N workers hold N shards of the
  cache, not N copies.  (Two *different* specs on different workers can
  still issue one identical sub-prompt; that is duplicated work across
  shards, not a correctness problem, and it is rare because whole specs —
  the unit the flow planner dedups — never split.)

Per-worker batches are submitted concurrently; each
:class:`~repro.cluster.workers.ThreadWorker` applies its own bounded
backpressure.  When a worker dies mid-batch (:class:`WorkerDeadError`), the
router removes it from the ring and requeues the affected specs onto the
surviving workers — consistent hashing keeps every other spec exactly where
its cache is.

Determinism: each worker is a complete serving stack, and a result is a pure
function of its spec (see :mod:`repro.serving.engine`), so cluster results
are bit-identical to a lone ``UniDM.run`` per spec at any worker count, and
requeueing a dead worker's specs onto survivors is exact.
``tests/cluster/test_parity.py`` enforces this.

Pipeline requests (:class:`~repro.api.pipeline_spec.PipelineSpec`) do not
hash to one worker: the router runs the streaming
:class:`~repro.flow.executor.FlowExecutor` itself and fans the plan's spec
batches out across the ring, so a whole-table pipeline is cluster-parallel
wave by wave.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..api.pipeline_spec import PipelineSpec
from ..api.protocol import decode_response, encode_request
from ..api.results import TaskResult
from ..api.specs import TaskSpec
from ..obs.events import emit_event
from ..obs.export import get_default_exemplars
from ..obs.periodic import PeriodicLoop
from ..obs.slo import SLOSpec
from ..obs.span import Span, remote_span, span
from ..serving.cache import PersistentCache
from ..serving.frontdoor import FrontDoor
from ..serving.service import build_service, run_pipeline_spec
from ..tenancy import DEFAULT_TENANT, TenantRegistry
from .hashing import HashRing, minimal_moved_keys, spec_key
from .stats import ClusterStats, WorkerStats
from .workers import ClusterError, SubprocessWorker, ThreadWorker, Worker, WorkerDeadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import UniDMConfig

__all__ = ["Router"]


class Router(FrontDoor):
    """The cluster host: a front door over consistent-hash-routed workers.

    Parameters
    ----------
    workers:
        The shard workers (see :mod:`repro.cluster.workers`).  The router
        owns them: :meth:`close` closes every worker.
    replicas:
        Virtual nodes per worker on the hash ring.
    health_interval:
        Seconds between background liveness sweeps (the ``repro-router-sweep``
        thread pings every worker and un-rings the dead; :meth:`close` joins
        it); ``None`` disables the sweep, leaving death detection to failed
        submissions.
    worker_factory:
        ``worker_id -> Worker`` callable used by :meth:`add_worker` (when
        no pre-built worker is passed) and :meth:`revive_worker`; the
        :meth:`local`/:meth:`spawn` constructors install one automatically.
    cache_dir:
        Base directory of per-worker persistent shards
        (``<cache_dir>/<worker_id>``); lets resizes migrate entries into a
        shard *before* its worker opens it, so joins start warm.
    faults:
        Optional :class:`repro.cluster.faults.FaultInjector` hook point —
        deterministic tests arm torn-migration faults through it.
    **door:
        :class:`~repro.serving.frontdoor.FrontDoor`'s options, unchanged
        (``max_inflight``, ``max_queue_depth``, ``retry_after``, ``metrics``,
        ``tenants``, ``slos``, ``monitor_interval``).  Tenancy is enforced
        once, here; worker services run tenancy-free so a spec is never
        double-charged.  The resolved tenant still rides every worker-bound
        envelope, and its weight every submit, so thread workers' engines
        admit weighted-fair across tenants.

    Raises
    ------
    ValueError
        If no workers are given or two workers share an id.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        *,
        replicas: int = 64,
        health_interval: float | None = 30.0,
        worker_factory: "Callable[[str], Worker] | None" = None,
        cache_dir: str | None = None,
        faults: Any = None,
        **door: Any,
    ):
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        ids = [worker.worker_id for worker in workers]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate worker ids: {ids}")
        self.workers: dict[str, Worker] = {w.worker_id: w for w in workers}
        self._ring = HashRing(ids, replicas=replicas)
        self._replicas = replicas
        self._worker_factory = worker_factory
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._faults = faults
        # The pool is sized generously so scale-ups never starve dispatch:
        # groups for distinct workers must be able to run concurrently.
        self._pool = ThreadPoolExecutor(
            max_workers=max(len(workers) * 2, 8), thread_name_prefix="repro-router"
        )
        self._lock = threading.Lock()
        self._routed: dict[str, int] = {wid: 0 for wid in ids}
        self._requeues = 0
        self._deaths = 0
        self._migrations = 0
        self._resizes = 0
        self._restarts = 0
        #: Per-worker registration generation: revivals bump it so a stale
        #: failure report from before the restart cannot kill the new
        #: incarnation (or double-count the old death).
        self._generation: dict[str, int] = {wid: 0 for wid in ids}
        #: Worker ids draining out (un-ringed but still finishing work);
        #: readiness treats them as expected-absent, not dead.
        self._draining: set[str] = set()
        #: In-flight dispatch groups per worker; remove_worker's drain
        #: phase waits on this through _drain_cv.
        self._inflight_by: dict[str, int] = {wid: 0 for wid in ids}
        self._drain_cv = threading.Condition(self._lock)
        super().__init__("router", **door)
        self._m_routed = {
            wid: self._metrics.counter(f"router.routed.{wid}") for wid in ids
        }
        self._m_requeued = self._metrics.counter("router.requeued")
        self._m_deaths = self._metrics.counter("router.deaths")
        self._m_inflight = self._metrics.gauge("router.inflight")
        self._m_migrations = self._metrics.counter("cluster.migrations")
        self._m_resizes = self._metrics.counter("cluster.resizes")
        self._m_restarts = self._metrics.counter("cluster.restarts")
        self._m_workers = self._metrics.gauge("cluster.workers")
        self._m_workers.set(len(ids))
        # Background health sweep, so gray failures are caught between
        # submits too (built either way, started only when enabled).
        self._sweep = PeriodicLoop(
            self.check_health, health_interval or 30.0, "repro-router-sweep"
        )
        if health_interval is not None:
            self._sweep.start()

    def _front_section(self) -> dict:
        return {
            "cluster": self.stats().to_payload(),
            "admission": self.admission.snapshot(),
        }

    def _workers_alive(self) -> tuple[int, int]:
        # Readiness in cluster mode additionally requires every *expected*
        # worker alive.  Draining workers are expected-absent (a planned
        # leave must not flip /readyz), while a crashed worker keeps
        # readiness down until the Supervisor revives it.
        return len(self.live_workers), len(self.workers) - len(self._draining)

    # ------------------------------------------------------------ constructors
    @classmethod
    def _assemble(
        cls,
        n_workers: int,
        build: "Callable[[str, str | None], Worker]",
        *,
        cache_dir: str | None,
        worker_decorator: "Callable[[Worker], Worker] | None",
        **options: Any,
    ) -> "Router":
        """The body :meth:`local` and :meth:`spawn` share.

        ``build(worker_id, shard_dir)`` makes one worker; everything else is
        the same for both kinds: ids are ``worker-NN``, a worker's persistent
        shard lives in ``<cache_dir>/<worker_id>`` (disjoint on disk, warm on
        restart), ``worker_decorator`` wraps every built worker (fault
        injection), a failed build closes the workers already built, and the
        same recipe is installed as the router's ``worker_factory`` so
        :meth:`add_worker` and :meth:`revive_worker` build identical workers
        at runtime.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be positive")

        def make_worker(worker_id: str) -> Worker:
            shard_dir = (
                str(Path(cache_dir) / worker_id) if cache_dir is not None else None
            )
            worker = build(worker_id, shard_dir)
            return worker_decorator(worker) if worker_decorator is not None else worker

        workers: list[Worker] = []
        try:
            for index in range(n_workers):
                workers.append(make_worker(f"worker-{index:02d}"))
        except Exception:
            for worker in workers:
                worker.close()
            raise
        return cls(workers, worker_factory=make_worker, cache_dir=cache_dir, **options)

    @classmethod
    def local(
        cls,
        n_workers: int = 4,
        *,
        seed: int = 0,
        model: str | None = None,
        knowledge: Any = None,
        cache_dir: str | None = None,
        batch_size: int = 8,
        engine_workers: int = 8,
        queue_depth: int = 32,
        llm_factory: "Any | None" = None,
        config: "UniDMConfig | None" = None,
        replicas: int = 64,
        max_inflight: int | None = None,
        max_queue_depth: int | None = None,
        tenants: TenantRegistry | None = None,
        slos: Sequence[SLOSpec] = (),
        health_interval: float | None = 30.0,
        worker_decorator: "Callable[[Worker], Worker] | None" = None,
        faults: Any = None,
    ) -> "Router":
        """A router over ``n_workers`` in-process thread workers.

        Every worker assembles its own serving stack (simulated LLM → cache
        → engine, :func:`~repro.serving.service.build_service`) with the
        same ``seed`` and ``config``.  ``llm_factory`` (an ``int ->
        LanguageModel`` callable, given the worker's index) substitutes a
        custom backend per worker — benchmarks and parity tests use it.
        Ids, shard directories, ``worker_decorator`` and the installed
        worker factory are :meth:`_assemble`'s.
        """

        def build(worker_id: str, shard_dir: "str | None") -> Worker:
            service = build_service(
                model=model,
                seed=seed,
                cache_dir=shard_dir,
                batch_size=batch_size,
                workers=engine_workers,
                knowledge=knowledge,
                llm=llm_factory(_worker_index(worker_id)) if llm_factory is not None else None,
                config=config,
            )
            return ThreadWorker(worker_id, service, queue_depth=queue_depth)

        return cls._assemble(
            n_workers,
            build,
            cache_dir=cache_dir,
            worker_decorator=worker_decorator,
            replicas=replicas,
            max_inflight=max_inflight,
            max_queue_depth=max_queue_depth,
            tenants=tenants,
            slos=slos,
            health_interval=health_interval,
            faults=faults,
        )

    @classmethod
    def spawn(
        cls,
        n_workers: int = 4,
        *,
        seed: int = 0,
        model: str | None = None,
        cache_dir: str | None = None,
        batch_size: int = 8,
        engine_workers: int = 8,
        host: str = "127.0.0.1",
        replicas: int = 64,
        max_inflight: int | None = None,
        max_queue_depth: int | None = None,
        tenants: TenantRegistry | None = None,
        slos: Sequence[SLOSpec] = (),
        health_interval: float | None = 30.0,
        worker_decorator: "Callable[[Worker], Worker] | None" = None,
        faults: Any = None,
    ) -> "Router":
        """A router over ``n_workers`` spawned ``repro serve`` subprocesses.

        Each child binds its own TCP port and owns its shard directory; the
        router speaks the binary-framed wire transport to them, so a
        subprocess cluster exercises exactly the path a remote deployment
        would.  Ids, shard directories, ``worker_decorator`` and the
        installed worker factory are :meth:`_assemble`'s.
        """

        def build(worker_id: str, shard_dir: "str | None") -> Worker:
            return SubprocessWorker(
                worker_id,
                host=host,
                seed=seed,
                model=model,
                cache_dir=shard_dir,
                batch_size=batch_size,
                engine_workers=engine_workers,
            )

        return cls._assemble(
            n_workers,
            build,
            cache_dir=cache_dir,
            worker_decorator=worker_decorator,
            replicas=replicas,
            max_inflight=max_inflight,
            max_queue_depth=max_queue_depth,
            tenants=tenants,
            slos=slos,
            health_interval=health_interval,
            faults=faults,
        )

    # ----------------------------------------------------------------- routing
    def worker_for(self, spec: TaskSpec) -> str:
        """The live worker id owning ``spec`` (affinity diagnostic)."""
        return self._ring.node_for(spec_key(spec))

    def _run(
        self,
        specs: Sequence[TaskSpec],
        *,
        priority: int,
        tenant: str | None,
        weight: float,
        trace: str | None,
        span_parent: str | None,
    ) -> list[TaskResult]:
        """The front door's *run*: one admitted group, fanned out by the ring."""
        with remote_span(
            "router.submit",
            trace_id=trace,
            parent_id=span_parent,
            specs=len(specs),
            tenant=tenant,
        ):
            return self._dispatch(
                specs, priority=priority, trace=trace, tenant=tenant, weight=weight
            )

    def _dispatch(
        self,
        specs: Sequence[TaskSpec],
        *,
        priority: int = 0,
        trace: str | None = None,
        tenant: str | None = None,
        weight: float = 1.0,
    ) -> list[TaskResult]:
        """Group specs by ring placement; per-worker groups run concurrently.

        A worker death mid-batch removes it from the ring and requeues only
        its group — every other spec stays on the worker holding its cache.
        ``trace`` rides every worker-bound envelope so the id survives the
        extra hop.  Raises :class:`ClusterError` once every worker has died
        (or the router is closed).
        """
        if self._closed:
            raise ClusterError("router is closed")
        results: list[TaskResult | None] = [None] * len(specs)
        pending: list[tuple[int, TaskSpec]] = []
        plans: list[tuple[int, PipelineSpec]] = []
        for index, spec in enumerate(specs):
            if isinstance(spec, PipelineSpec):
                plans.append((index, spec))
            else:
                pending.append((index, spec))

        inflight = self._m_inflight
        n_tracked = len(pending)
        inflight.inc(n_tracked)
        # Pool threads get no contextvars; capture the caller's span (the
        # router.submit span, or a flow.wave span for nested wave dispatches)
        # here so every per-worker dispatch span parents under it.
        parent_span = Span.current()
        try:
            rounds = 0
            while pending:
                rounds += 1
                if rounds > len(self.workers) + 2:  # pragma: no cover - defensive
                    raise ClusterError("requeue loop exceeded the worker count")
                groups: dict[str, list[tuple[int, TaskSpec]]] = {}
                try:
                    for index, spec in pending:
                        groups.setdefault(self.worker_for(spec), []).append(
                            (index, spec)
                        )
                except LookupError as exc:
                    raise ClusterError(str(exc)) from exc
                futures = {}
                generations = {}
                for worker_id, group in groups.items():
                    generations[worker_id] = self._generation.get(worker_id, 0)
                    self._track_inflight(worker_id, +1)
                    futures[worker_id] = self._pool.submit(
                        self._submit_group_tracked,
                        worker_id,
                        group,
                        priority,
                        trace,
                        parent_span,
                        tenant,
                        weight,
                    )
                pending = []
                for worker_id, future in futures.items():
                    group = groups[worker_id]
                    try:
                        answered = future.result()
                    except (WorkerDeadError, ClusterError):
                        self._mark_dead(worker_id, generations[worker_id])
                        with self._lock:
                            self._requeues += len(group)
                        self._m_requeued.inc(len(group))
                        emit_event(
                            "router.requeue",
                            trace=trace,
                            worker=worker_id,
                            specs=len(group),
                        )
                        pending.extend(group)
                        continue
                    for (index, _), result in zip(group, answered):
                        results[index] = result
        finally:
            inflight.dec(n_tracked)

        for index, spec in plans:
            # Wave submissions keep the plan's priority, tenant and weight
            # so the workers' engines admit them on the plan's share (no
            # re-admission: the plan was charged once at the front door).
            results[index] = run_pipeline_spec(
                spec,
                lambda wave: self._dispatch(
                    wave, priority=priority, trace=trace, tenant=tenant, weight=weight
                ),
            )
        return [result for result in results if result is not None]

    def _submit_group(
        self,
        worker_id: str,
        group: "list[tuple[int, TaskSpec]]",
        priority: int = 0,
        trace: str | None = None,
        parent: "Span | None" = None,
        tenant: str | None = None,
        weight: float = 1.0,
    ) -> list[TaskResult]:
        worker = self.workers[worker_id]
        # Runs on a pool thread: the dispatch span is re-rooted from the
        # captured caller span, and its id rides the envelope's "span" key so
        # the worker-side subtree (possibly in another process, over TCP)
        # parents under this hop.
        wire_trace = trace if trace is not None else (
            parent.trace_id if parent is not None else None
        )
        with span(
            "router.dispatch",
            trace_id=wire_trace,
            parent_id=parent.span_id if parent is not None else None,
            worker=worker_id,
            specs=len(group),
        ) as dispatch_span:
            requests = [
                encode_request(
                    spec,
                    request_id=local_id,
                    trace=wire_trace,
                    priority=priority,
                    span=(
                        dispatch_span.span_id if dispatch_span is not None else None
                    ),
                    tenant=tenant,
                )
                for local_id, (_, spec) in enumerate(group)
            ]
            responses = worker.submit(
                requests,
                priority=priority,
                tenant=tenant or DEFAULT_TENANT,
                weight=weight,
            )
            if len(responses) != len(requests):
                raise WorkerDeadError(
                    f"worker {worker_id} answered {len(responses)} responses "
                    f"for {len(requests)} requests"
                )
        with self._lock:
            self._routed[worker_id] += len(group)
        self._m_routed[worker_id].inc(len(group))
        get_default_exemplars().note(f"router.routed.{worker_id}", wire_trace)
        return [decode_response(response) for response in responses]

    def _submit_group_tracked(
        self,
        worker_id: str,
        group: "list[tuple[int, TaskSpec]]",
        priority: int = 0,
        trace: str | None = None,
        parent: "Span | None" = None,
        tenant: str | None = None,
        weight: float = 1.0,
    ) -> list[TaskResult]:
        try:
            return self._submit_group(
                worker_id, group, priority, trace, parent, tenant, weight
            )
        finally:
            self._track_inflight(worker_id, -1)

    def _track_inflight(self, worker_id: str, delta: int) -> None:
        with self._drain_cv:
            self._inflight_by[worker_id] = (
                self._inflight_by.get(worker_id, 0) + delta
            )
            if delta < 0:
                self._drain_cv.notify_all()

    # ------------------------------------------------------------------ health
    def check_health(self) -> dict[str, bool]:
        """Ping every worker; mark and un-ring the dead.  Returns id → alive."""
        alive = {}
        for worker_id, worker in list(self.workers.items()):
            generation = self._generation.get(worker_id, 0)
            ok = worker.ping()
            alive[worker_id] = ok
            if not ok and worker_id in self._ring:
                self._mark_dead(worker_id, generation)
        return alive

    def _mark_dead(self, worker_id: str, generation: int | None = None) -> None:
        """Un-ring a worker discovered dead (idempotent, generation-aware).

        A sweep and a failed submit can report the same corpse
        concurrently, and a stale report can arrive *after* the Supervisor
        revived the worker; the registration generation captured at
        dispatch time disarms both — only the first matching report of a
        still-current incarnation counts a death.
        """
        with self._lock:
            current = self._generation.get(worker_id, 0)
            stale = generation is not None and generation != current
            if not stale and worker_id in self._ring:
                self._ring.remove(worker_id)
                self._deaths += 1
                self._m_deaths.inc()
                self._m_workers.set(len(self._ring.nodes))
                died = True
            else:
                died = False
        if died:
            emit_event(
                "worker.death", worker=worker_id, survivors=len(self._ring.nodes)
            )

    @property
    def live_workers(self) -> set[str]:
        return self._ring.nodes

    @property
    def draining_workers(self) -> set[str]:
        """Workers currently draining out of the ring (planned leaves)."""
        with self._lock:
            return set(self._draining)

    # -------------------------------------------------------------- elasticity
    def add_worker(
        self, worker: Worker | None = None, *, worker_id: str | None = None
    ) -> str:
        """Join a worker to the ring at runtime; returns its id.

        The live-resize half of elasticity: while requests are in flight,
        the consistent-hash-minimal set of moved spec keys is computed from
        every live shard's route index, exactly those ``PersistentCache``
        entries are copied into the joining worker's shard (before the
        worker opens it when the router builds the worker itself, so the
        join starts warm), the sources drop the moved entries, and only
        then does the new node enter the ring.

        Pass a pre-built ``worker`` or let the router build one through its
        worker factory (installed by :meth:`local`/:meth:`spawn`).
        """
        if worker is None and self._worker_factory is None:
            raise ClusterError(
                "add_worker needs a pre-built worker or a worker_factory"
            )
        new_id = worker.worker_id if worker is not None else (
            worker_id or self._next_worker_id()
        )
        with self._lock:
            if new_id in self.workers:
                raise ValueError(f"duplicate worker id: {new_id}")
        # Placement what-if: where will keys live once new_id joins?
        with self._lock:
            new_ring = self._ring.with_node(new_id)
        moved_rows, moved_by_source = self._collect_moved_for_join(new_id, new_ring)
        migrated = 0
        if worker is None:
            # Migrate on disk *before* the worker opens its shard: the
            # freshly built worker loads the moved entries warm.
            target_dir = self._shard_dir_for(new_id)
            if target_dir is not None and moved_rows:
                target = PersistentCache(target_dir, metrics=self._metrics)
                migrated = target.absorb(moved_rows)
                self._maybe_tear(target)
            worker = self._worker_factory(new_id)  # type: ignore[misc]
        elif moved_rows:
            shard = worker.shard()
            if shard is not None:
                migrated = shard.absorb(moved_rows)
                self._maybe_tear(shard)
            else:
                target_dir = worker.shard_path() or self._shard_dir_for(new_id)
                if target_dir is not None:
                    target = PersistentCache(target_dir, metrics=self._metrics)
                    migrated = target.absorb(moved_rows)
                    self._maybe_tear(target)
        # Sources stop holding what they no longer own (live shards only:
        # a subprocess source keeps stale copies rather than racing its
        # own appends — harmless duplicates, documented in architecture.md).
        for source_id, moved_routes in moved_by_source.items():
            source = self.workers.get(source_id)
            shard = source.shard() if source is not None else None
            if shard is not None:
                shard.remove_routes(moved_routes)
        self._register_worker(worker)
        with self._lock:
            self._resizes += 1
            self._migrations += migrated
        self._m_resizes.inc()
        if migrated:
            self._m_migrations.inc(migrated)
        emit_event(
            "cluster.resize",
            action="join",
            worker=new_id,
            migrated_entries=migrated,
            workers=len(self._ring.nodes),
        )
        return new_id

    def remove_worker(
        self,
        worker_id: str,
        *,
        drain: bool = True,
        migrate: bool = True,
        drain_timeout: float = 30.0,
    ) -> int:
        """Leave the ring at runtime; returns the number of migrated entries.

        The worker is un-ringed first (new dispatches immediately re-route
        to survivors), its in-flight groups drain (bounded by
        ``drain_timeout``), its shard entries migrate to their new
        consistent-hash owners, and only then is the worker closed and
        forgotten.  With ``drain=False`` in-flight work is abandoned to the
        requeue path instead (a forced leave).
        """
        with self._drain_cv:
            if worker_id not in self.workers:
                raise ValueError(f"unknown worker: {worker_id}")
            if len(self._ring.nodes) <= 1 and worker_id in self._ring:
                raise ClusterError("cannot remove the last live worker")
            self._draining.add(worker_id)
            if worker_id in self._ring:
                self._ring.remove(worker_id)
            self._m_workers.set(len(self._ring.nodes))
            if drain:
                deadline = time.monotonic() + drain_timeout
                while self._inflight_by.get(worker_id, 0) > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break  # give up waiting; requeue path covers the rest
                    self._drain_cv.wait(timeout=remaining)
        worker = self.workers[worker_id]
        migrated = 0
        if migrate:
            migrated = self._migrate_out(worker)
        worker.close()
        with self._drain_cv:
            self.workers.pop(worker_id, None)
            self._draining.discard(worker_id)
            self._inflight_by.pop(worker_id, None)
            self._resizes += 1
            self._migrations += migrated
        self._m_resizes.inc()
        if migrated:
            self._m_migrations.inc(migrated)
        emit_event(
            "cluster.resize",
            action="leave",
            worker=worker_id,
            migrated_entries=migrated,
            workers=len(self._ring.nodes),
        )
        return migrated

    def revive_worker(self, worker_id: str) -> Worker:
        """Respawn a crashed worker in place (same id, same shard dir).

        The Supervisor's restart primitive: the replacement re-opens the
        same persistent shard (warm-restart replay), takes over the ring
        position of its predecessor — consistent hashing puts it back in
        charge of exactly the keys it owned — and bumps the registration
        generation so stale death reports of the old incarnation are inert.
        """
        if self._worker_factory is None:
            raise ClusterError("revive_worker needs a worker_factory")
        with self._lock:
            if worker_id not in self.workers:
                raise ValueError(f"unknown worker: {worker_id}")
            if worker_id in self._ring:
                raise ClusterError(f"worker {worker_id} is still live")
        old = self.workers[worker_id]
        old.close()  # reap the corpse (idempotent on an already-dead child)
        worker = self._worker_factory(worker_id)
        with self._lock:
            self.workers[worker_id] = worker
            self._generation[worker_id] = self._generation.get(worker_id, 0) + 1
            self._ring.add(worker_id)
            self._restarts += 1
            self._m_workers.set(len(self._ring.nodes))
        self._m_restarts.inc()
        emit_event(
            "cluster.restart",
            worker=worker_id,
            generation=self._generation[worker_id],
            workers=len(self._ring.nodes),
        )
        return worker

    # ----------------------------------------------------- migration internals
    def _next_worker_id(self) -> str:
        with self._lock:
            taken = {_worker_index(wid) for wid in self.workers}
        index = 0
        while index in taken:
            index += 1
        return f"worker-{index:02d}"

    def _shard_dir_for(self, worker_id: str) -> "Path | None":
        if self._cache_dir is None:
            return None
        return self._cache_dir / worker_id

    def _shard_of(self, worker: Worker) -> "PersistentCache | None":
        """The worker's shard: live object preferred, else opened from disk."""
        shard = worker.shard()
        if shard is not None:
            return shard
        path = worker.shard_path()
        if path is not None and Path(path).exists():
            return PersistentCache(path, metrics=self._metrics)
        return None

    def _collect_moved_for_join(
        self, new_id: str, new_ring: HashRing
    ) -> "tuple[list[dict], dict[str, set[str]]]":
        """Rows relocating to ``new_id`` and which source shard owns them."""
        moved_rows: list[dict] = []
        moved_by_source: dict[str, set[str]] = {}
        for source_id, source in list(self.workers.items()):
            if source_id not in self._ring:
                continue
            shard = self._shard_of(source)
            if shard is None:
                continue
            routes = shard.route_keys()
            moved = {
                key
                for key, (_, new_owner) in minimal_moved_keys(
                    self._ring, new_ring, routes
                ).items()
                if new_owner == new_id
            }
            if moved:
                moved_rows.extend(shard.entries_for_routes(moved))
                moved_by_source[source_id] = moved
        return moved_rows, moved_by_source

    def _migrate_out(self, worker: Worker) -> int:
        """Copy a leaving worker's entries to their new ring owners."""
        shard = self._shard_of(worker)
        if shard is None or not self._ring.nodes:
            return 0
        routes = shard.route_keys()
        if not routes:
            return 0
        by_target: dict[str, set[str]] = {}
        for key in routes:
            try:
                by_target.setdefault(self._ring.node_for(key), set()).add(key)
            except LookupError:  # pragma: no cover - ring emptied mid-leave
                return 0
        migrated = 0
        for target_id, moved in by_target.items():
            rows = shard.entries_for_routes(moved)
            if not rows:
                continue
            target = self.workers.get(target_id)
            target_shard = self._shard_of(target) if target is not None else None
            if target_shard is None:
                continue
            migrated += target_shard.absorb(rows)
            self._maybe_tear(target_shard)
        return migrated

    def _maybe_tear(self, shard: "PersistentCache") -> None:
        """Fault hook: a torn-migration injection truncates the target."""
        if self._faults is not None:
            self._faults.maybe_tear(shard)

    def _register_worker(self, worker: Worker) -> None:
        worker_id = worker.worker_id
        with self._lock:
            self.workers[worker_id] = worker
            self._routed.setdefault(worker_id, 0)
            self._generation.setdefault(worker_id, 0)
            self._inflight_by.setdefault(worker_id, 0)
            if worker_id not in self._m_routed:
                self._m_routed[worker_id] = self._metrics.counter(
                    f"router.routed.{worker_id}"
                )
            self._ring.add(worker_id)
            self._m_workers.set(len(self._ring.nodes))

    # ------------------------------------------------------------------- stats
    def stats(self) -> ClusterStats:
        """Aggregate a :class:`ClusterStats` snapshot across all workers."""
        rows: list[WorkerStats] = []
        for worker_id, worker in list(self.workers.items()):
            row = worker.stats()
            row.alive = worker_id in self._ring and row.alive
            row.routed = self._routed.get(worker_id, 0)
            rows.append(row)
        with self._lock:
            return ClusterStats(
                workers=rows,
                routed=sum(self._routed.values()),
                requeues=self._requeues,
                deaths=self._deaths,
                migrations=self._migrations,
                resizes=self._resizes,
                restarts=self._restarts,
                draining=len(self._draining),
            )

    # --------------------------------------------------------------- lifecycle
    def _shutdown(self) -> None:
        """Join the sweep, shut the pool down, close every worker.

        The sweep goes first so it can never race worker shutdown.
        """
        self._sweep.stop()
        self._pool.shutdown(wait=True)
        for worker in list(self.workers.values()):
            worker.close()


def _worker_index(worker_id: str) -> int:
    """The numeric suffix of a ``worker-NN`` id (0 when there is none).

    Feeds ``llm_factory(index)`` so a worker rebuilt by the factory gets
    the same backend its original had.
    """
    tail = worker_id.rsplit("-", 1)[-1]
    try:
        return int(tail)
    except ValueError:
        return 0
