"""The cluster router — sharded serving with cache affinity.

:class:`Router` is a :class:`~repro.serving.frontdoor.FrontDoor` (the same
``handle_batch`` / ``stats_snapshot`` / ``close`` as the single-process
service, so ``python -m repro serve --cluster`` and
:meth:`repro.api.Client.cluster` hold it exactly like a service) whose *run*
fans :class:`~repro.api.specs.TaskSpec` batches out over N workers (threads
in-process, or spawned ``python -m repro serve`` processes speaking the v2
TCP protocol).  Workers take the specs typed, on the caller's trace context:
a request is parsed once, at the router's door, and only a subprocess
worker encodes what it sends.  Placement is one consistent-hash ring
(:mod:`repro.cluster.hashing`) that places two things:

* a **spec**, by its canonical wire form: the same spec always runs on the
  same worker;
* a **prompt**, by its cache key (:func:`~repro.llm.cache.prompt_key`): its
  entry, in the LRU and the :class:`~repro.serving.cache.PersistentCache`
  shard, lives on the worker the ring names, so N workers hold N disjoint
  shards.
  The in-process workers of :meth:`local` share one
  :class:`~repro.cluster.hashing.PromptOwners` map and look up, claim and
  store every prompt at its owner: a sub-prompt that specs on different
  workers share is computed once per cluster.  Subprocess workers
  (:meth:`spawn`) cannot reach a peer's cache and compute into their own.

Per-worker batches are submitted concurrently, on the router's dispatch
pool.  The router is the one owner of the cluster's backpressure: its front
door's admission (``max_inflight`` + ``max_queue_depth``) sheds requests
beyond its capacity, and the pool's ``max(2N, 8)`` threads bound the batches
inside the workers (:class:`~repro.cluster.workers.ThreadWorker` has no
bound of its own).  When a worker dies mid-batch (:class:`WorkerDeadError`),
the router removes it from the ring and requeues the affected specs onto the
surviving workers — consistent hashing keeps every other spec, and every
prompt the dead worker did not own, where it was.

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..api.pipeline_spec import PipelineSpec
from ..api.results import TaskResult
from ..api.specs import TaskSpec
from ..obs.events import emit_event
from ..obs.export import get_default_exemplars
from ..obs.periodic import PeriodicLoop
from ..obs.slo import SLOSpec
from ..obs.span import Span, remote_span
from ..serving.cache import PersistentCache, entry_record
from ..serving.frontdoor import FrontDoor
from ..serving.service import build_service, run_pipeline_spec
from ..tenancy import DEFAULT_TENANT, TenantRegistry
from .hashing import HashRing, PromptOwners, spec_key
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
        once, here: workers are handed admitted specs, so a spec is never
        double-charged.  The resolved tenant and its weight ride every
        submit, so thread workers' engines admit weighted-fair across
        tenants.

    Raises
    ------
    ValueError
        If no workers are given or two workers share an id.
    """

    #: Seconds :meth:`remove_worker` waits for the leaver's in-flight groups
    #: before it migrates and closes the worker anyway.
    DRAIN_TIMEOUT = 30.0

    def __init__(
        self,
        workers: Sequence[Worker],
        *,
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
        self._ring = HashRing(ids)
        self._worker_factory = worker_factory
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._faults = faults
        # Groups for distinct workers must run concurrently, two dispatches
        # over; a join raises the bound (_register_worker).  Its threads are
        # the workers' only callers, so this is the most batches the workers
        # hold at once.
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
        #: Worker ids an unfinished add_worker has taken.
        self._joining: set[str] = set()
        #: In-flight dispatch groups per worker; remove_worker's drain
        #: phase waits on this through _drain_cv.
        self._inflight_by: dict[str, int] = {wid: 0 for wid in ids}
        self._drain_cv = threading.Condition(self._lock)
        super().__init__("router", **door)
        self._m_routed = {
            wid: self._metrics.counter(f"router.routed.{wid}") for wid in ids
        }
        self._m_requeued = self._metrics.counter("router.requeued")
        self._m_inflight = self._metrics.gauge("router.inflight")
        # Background health sweep, so gray failures are caught between
        # submits too (built either way, started only when enabled).
        self._sweep = PeriodicLoop(
            self.check_health, health_interval or 30.0, "repro-router-sweep"
        )
        if health_interval is not None:
            self._sweep.start()

    def _front_section(self) -> dict:
        return {
            "cluster": {**self.stats().to_payload(), "requests_served": self.requests_served},
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
        llm_factory: "Any | None" = None,
        config: "UniDMConfig | None" = None,
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
        Every worker's cache, a joiner's or revival's too, is registered in
        one :class:`~repro.cluster.hashing.PromptOwners` over the ring.
        The workers hold no queue: the router's dispatch pool is their only
        caller, and ``max_inflight``/``max_queue_depth`` bound what the
        front door admits.  Ids, shard directories, ``worker_decorator`` and
        the installed worker factory are :meth:`_assemble`'s.
        """
        owners = PromptOwners()

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
            # Here, before worker_decorator may wrap the pipeline's model.
            owners.register(worker_id, service.pipeline.llm)
            return ThreadWorker(worker_id, service)

        router = cls._assemble(
            n_workers,
            build,
            cache_dir=cache_dir,
            worker_decorator=worker_decorator,
            max_inflight=max_inflight,
            max_queue_depth=max_queue_depth,
            tenants=tenants,
            slos=slos,
            health_interval=health_interval,
            faults=faults,
        )
        owners.ring = router._ring
        return router

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

    def run(
        self,
        specs: Sequence[TaskSpec],
        *,
        priority: int = 0,
        tenant: str | None = None,
        weight: float = 1.0,
        trace: str | None = None,
        span_parent: str | None = None,
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
        ``trace`` is bound around every worker submit so the id survives the
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
                        self._submit_group,
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
        """One worker's group, on a pool thread; ``_dispatch`` counted it in
        ``_inflight_by`` (what :meth:`remove_worker` drains) and this counts
        it out."""
        # The dispatch span is re-rooted from the captured caller span, and
        # the trace is bound around it, so the worker's spans and exemplars
        # take both from context (a subprocess worker puts them in its
        # envelopes).
        wire_trace = trace if trace is not None else (
            parent.trace_id if parent is not None else None
        )
        try:
            with remote_span(
                "router.dispatch",
                trace_id=wire_trace,
                parent_id=parent.span_id if parent is not None else None,
                worker=worker_id,
                specs=len(group),
            ):
                results = self.workers[worker_id].submit(
                    [spec for _, spec in group],
                    priority=priority,
                    tenant=tenant or DEFAULT_TENANT,
                    weight=weight,
                )
                if len(results) != len(group):
                    raise WorkerDeadError(
                        f"worker {worker_id} answered {len(results)} results "
                        f"for {len(group)} specs"
                    )
            with self._lock:
                self._routed[worker_id] += len(group)
            self._m_routed[worker_id].inc(len(group))
            get_default_exemplars().note(f"router.routed.{worker_id}", wire_trace)
            return results
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
        every live shard's entries whose prompt keys the grown ring places
        on the joiner are copied into the joiner's shard (before the worker
        opens it when the router builds the worker itself, so the join
        starts warm), the sources drop them, and only then does the new
        node enter the ring.

        Pass a pre-built ``worker`` or let the router build one through its
        worker factory (installed by :meth:`local`/:meth:`spawn`).  The id
        is taken at entry, so concurrent joins never share one.
        """
        if worker is None and self._worker_factory is None:
            raise ClusterError(
                "add_worker needs a pre-built worker or a worker_factory"
            )
        with self._lock:
            new_id = worker.worker_id if worker is not None else (
                worker_id or self._free_worker_id()
            )
            if new_id in self.workers or new_id in self._joining:
                raise ValueError(f"duplicate worker id: {new_id}")
            self._joining.add(new_id)
            # Placement what-if: where will keys live once new_id joins?
            new_ring = self._ring.with_node(new_id)
        try:
            # The joiner's shard: its live one, else the directory it names,
            # else the router's <cache_dir>/<id> a router-built worker opens.
            target = worker.shard() if worker is not None else None
            if target is None:
                path = worker.shard_path() if worker is not None else None
                if path is None and self._cache_dir is not None:
                    path = self._cache_dir / new_id
                if path is not None:
                    target = PersistentCache(path)
            migrated, moved = self._move_entries(
                self._live_shards(), new_ring, {new_id: target} if target is not None else {}
            )
            if worker is None:
                worker = self._worker_factory(new_id)  # type: ignore[misc]
            # Sources stop holding what they no longer own (live shards only:
            # a subprocess source keeps stale copies rather than racing its
            # own appends — harmless duplicates, documented in architecture.md).
            for source_id, keys in moved.items():
                source = self.workers.get(source_id)
                shard = source.shard() if source is not None else None
                if shard is not None:
                    shard.drop(keys)
            self._register_worker(worker)
        finally:
            with self._lock:
                self._joining.discard(new_id)
        self._note_resize("join", new_id, migrated)
        return new_id

    def remove_worker(self, worker_id: str) -> int:
        """Leave the ring at runtime; returns the number of migrated entries.

        The worker is un-ringed first (new dispatches immediately re-route
        to survivors), its in-flight groups drain (bounded by
        :attr:`DRAIN_TIMEOUT`; the requeue path covers what is left), its
        shard entries migrate to their new consistent-hash owners, and only
        then is the worker closed and forgotten.
        """
        with self._drain_cv:
            if worker_id not in self.workers:
                raise ValueError(f"unknown worker: {worker_id}")
            if len(self._ring.nodes) <= 1 and worker_id in self._ring:
                raise ClusterError("cannot remove the last live worker")
            self._draining.add(worker_id)
            self._ring.remove(worker_id)
            self._drain_cv.wait_for(
                lambda: self._inflight_by.get(worker_id, 0) <= 0,
                timeout=self.DRAIN_TIMEOUT,
            )
        worker = self.workers[worker_id]
        shard = self._shard_of(worker)
        migrated = 0
        if shard is not None:
            migrated, _ = self._move_entries(
                {worker_id: shard}, self._ring, self._live_shards()
            )
        worker.close()
        with self._drain_cv:
            self.workers.pop(worker_id, None)
            self._draining.discard(worker_id)
            self._inflight_by.pop(worker_id, None)
        self._note_resize("leave", worker_id, migrated)
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
        emit_event(
            "cluster.restart",
            worker=worker_id,
            generation=self._generation[worker_id],
            workers=len(self._ring.nodes),
        )
        return worker

    # ----------------------------------------------------- migration internals
    def _free_worker_id(self) -> str:
        """The lowest ``worker-NN`` no worker holds or joins as; needs ``_lock``."""
        taken = {_worker_index(wid) for wid in (*self.workers, *self._joining)}
        index = 0
        while index in taken:
            index += 1
        return f"worker-{index:02d}"

    def _shard_of(self, worker: Worker) -> "PersistentCache | None":
        """The worker's shard: live object preferred, else opened from disk."""
        shard = worker.shard()
        if shard is not None:
            return shard
        path = worker.shard_path()
        if path is not None and Path(path).exists():
            return PersistentCache(path)
        return None

    def _live_shards(self) -> "dict[str, PersistentCache]":
        """Every ringed worker's shard, by worker id."""
        shards = {}
        for worker_id, worker in list(self.workers.items()):
            shard = self._shard_of(worker) if worker_id in self._ring else None
            if shard is not None:
                shards[worker_id] = shard
        return shards

    def _move_entries(
        self,
        sources: "dict[str, PersistentCache]",
        ring: HashRing,
        targets: "dict[str, PersistentCache]",
    ) -> "tuple[int, dict[str, set[bytes]]]":
        """Copy each source's entries that ``ring`` places on a target.

        The one mover of both resizes: a join passes the live shards and
        the joiner as the only target, a leave the leaver and every live
        shard.  An entry moves when ``ring.node_for_digest(key)`` — its
        prompt's cache key — is a target other than its source.  Returns
        the entries added and, per source, the keys that moved.
        """
        rows_for: dict[str, list[dict]] = {}
        moved: dict[str, set[bytes]] = {}
        if not targets:
            return 0, moved
        for source_id, source in sources.items():
            for key, entry in source.items():
                owner = ring.node_for_digest(key)
                if owner != source_id and owner in targets:
                    rows_for.setdefault(owner, []).append(entry_record(key, entry))
                    moved.setdefault(source_id, set()).add(key)
        migrated = 0
        for target_id, rows in rows_for.items():
            migrated += targets[target_id].absorb(rows)
            # Fault hook: a torn-migration injection truncates the target.
            if self._faults is not None:
                self._faults.maybe_tear(targets[target_id])
        return migrated, moved

    def _note_resize(self, action: str, worker_id: str, migrated: int) -> None:
        with self._lock:
            self._resizes += 1
            self._migrations += migrated
        emit_event(
            "cluster.resize",
            action=action,
            worker=worker_id,
            migrated_entries=migrated,
            workers=len(self._ring.nodes),
        )

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
            # The executor starts threads lazily up to this bound, so
            # raising it is all a join needs for one dispatch to run a group
            # on every worker, two dispatches over.
            self._pool._max_workers = max(
                self._pool._max_workers, 2 * len(self._ring.nodes)
            )

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

        The sweep goes first so it can never race worker shutdown, and the
        pool's join lets every batch inside a worker finish before that
        worker closes.
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
