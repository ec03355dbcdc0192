"""Cluster workers — the execution shards behind the router.

A worker is anything that answers batches of typed
:class:`~repro.api.specs.TaskSpec` in order with
:class:`~repro.api.results.TaskResult` (:meth:`Worker.submit`), can say
whether it is alive (:meth:`Worker.ping`) and can report a
:class:`~repro.cluster.stats.WorkerStats` row.  Two implementations ship:

* :class:`ThreadWorker` — a full serving stack
  (:class:`~repro.serving.service.ServingService` with its own pipeline,
  engine and :class:`~repro.serving.cache.PersistentCache` shard) that every
  caller enters on its own thread.  The specs go straight to the service's
  run (the router admitted them already), and the batches inside share the
  engine's slots and round trips; which task runs next is decided there, at
  slot admission, on the share ``submit`` was given.  The worker bounds
  nothing itself: what bounds a cluster is the router's — its front door's
  admission sheds requests beyond its capacity, and its dispatch pool caps
  the batches inside the workers (see :class:`~repro.cluster.router.Router`).
* :class:`SubprocessWorker` — a spawned ``python -m repro serve --port``
  process spoken to over the v2 wire transport; the process owns its cache
  shard directory, so shards stay disjoint across process boundaries too.
  It is the one worker whose specs leave the process, and so the one that
  encodes them.

Both raise :class:`WorkerDeadError` from ``submit`` once they are closed,
killed or crashed — the router's requeue-on-death path keys off it.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..api.results import TaskResult
from ..api.specs import TaskSpec
from ..tenancy import DEFAULT_TENANT
from .stats import WorkerStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.client import _RemoteBackend
    from ..serving.service import ServingService

__all__ = [
    "ClusterError",
    "SubprocessWorker",
    "ThreadWorker",
    "Worker",
    "WorkerDeadError",
]


class ClusterError(RuntimeError):
    """Base class of cluster-layer failures."""


class WorkerDeadError(ClusterError):
    """The worker cannot take work any more (closed, killed or crashed)."""


class _StartupExit(ClusterError):
    """Internal: a spawned worker exited before its socket came up."""


class Worker:
    """Contract every shard implements: ordered specs in, results out."""

    worker_id: str

    def submit(
        self,
        specs: Sequence[TaskSpec],
        priority: int = 0,
        *,
        tenant: str = DEFAULT_TENANT,
        weight: float = 1.0,
    ) -> list[TaskResult]:
        """Answer one batch of specs in order, failures embedded per result.

        ``priority`` (higher first) is honored by the engine behind the
        worker at slot admission; ``tenant``/``weight`` are the share the
        batch runs on where the worker's engine can be told (a
        :class:`ThreadWorker`'s), so the router's weighted-fair scheduling
        reaches the shard's slots.  Implementations may ignore all three.
        The caller's bound :class:`~repro.obs.trace.Trace` and span are the
        batch's trace context.

        Raises
        ------
        WorkerDeadError
            When the worker is no longer able to process batches; the
            router reacts by removing it from the ring and re-routing.
        """
        raise NotImplementedError

    def ping(self) -> bool:
        """Cheap liveness check (no request is executed)."""
        raise NotImplementedError

    def stats(self) -> WorkerStats:
        """A point-in-time stats row for :class:`ClusterStats`."""
        return WorkerStats(worker_id=self.worker_id, alive=self.ping())

    def close(self) -> None:
        """Release the worker's resources; later ``submit`` calls raise."""

    def kill(self) -> None:
        """Simulate/force an ungraceful death (used by failover paths/tests)."""
        self.close()

    def shard(self) -> "object | None":
        """The live :class:`~repro.serving.cache.PersistentCache` shard.

        ``None`` when the shard is not reachable in this process (no
        persistent cache configured, or the worker runs elsewhere — see
        :meth:`shard_path` for the on-disk handle).
        """
        return None

    def shard_path(self) -> "Path | None":
        """The shard directory on disk, when one exists (else ``None``)."""
        shard = self.shard()
        return getattr(shard, "path", None)


class ThreadWorker(Worker):
    """An in-process serving stack its callers enter on their own threads.

    ``submit`` runs the specs through the service's run on the calling
    thread (no door: no parse, admission or encode), so concurrent batches
    overlap in the worker's resident engine: their tasks wait for its slots
    in one weighted-fair order (cost 1 per task, priority then arrival
    within a tenant) and their prompts share its round trips.

    The worker keeps no bound and no queue of its own: its callers are the
    router's dispatch threads, so at most that pool's size of batches are
    inside, and the router drains a worker before it closes it.

    Parameters
    ----------
    worker_id:
        Ring identity; also names the cache shard directory.
    service:
        The worker-owned :class:`~repro.serving.service.ServingService`
        (its pipeline, engine and persistent cache belong to this shard
        only).
    """

    def __init__(self, worker_id: str, service: "ServingService"):
        self.worker_id = worker_id
        self.service = service
        self._closed = False
        #: Specs this worker has answered (its stats row's count).
        self.requests_served = 0
        self._count_lock = threading.Lock()

    # ----------------------------------------------------------------- running
    def submit(
        self,
        specs: Sequence[TaskSpec],
        priority: int = 0,
        *,
        tenant: str = DEFAULT_TENANT,
        weight: float = 1.0,
    ) -> list[TaskResult]:
        if self._closed:
            raise WorkerDeadError(f"worker {self.worker_id} is not accepting work")
        try:
            # The run uses this share: the engine orders contending batches
            # task by task.
            results = self.service.run(specs, priority=priority, tenant=tenant, weight=weight)
        except Exception as exc:
            if self._closed:
                # close() closed the engine under this batch; a survivor can
                # still answer it.
                raise WorkerDeadError(f"worker {self.worker_id} shut down mid-batch") from exc
            raise
        with self._count_lock:
            self.requests_served += len(results)
        return results

    # ------------------------------------------------------------------ health
    def ping(self) -> bool:
        return not self._closed

    def stats(self) -> WorkerStats:
        row = WorkerStats(worker_id=self.worker_id, alive=self.ping())
        row.requests_served = self.requests_served
        llm = self.service.pipeline.llm
        row.cache_hits = getattr(llm, "hits", 0)
        row.cache_misses = getattr(llm, "misses", 0)
        row.persistent_hits = getattr(llm, "persistent_hits", 0)
        persistent = getattr(llm, "persistent", None)
        if persistent is not None:
            row.cache_entries = len(persistent)
        return row

    def shard(self) -> "object | None":
        return getattr(self.service.pipeline.llm, "persistent", None)

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Turn later batches away and close the service (idempotent).

        A batch still inside fails with :class:`WorkerDeadError`, which the
        router requeues onto a survivor.
        """
        self._closed = True
        self.service.close()


class SubprocessWorker(Worker):
    """A spawned ``python -m repro serve --port`` process as a shard.

    The child speaks the negotiated v2 wire transport of
    :mod:`repro.serving.transport` — a pooled keep-alive connection with
    binary framing and pipelined batches, exactly like
    :meth:`repro.api.Client.remote`.  Its persistent-cache shard lives in
    the directory passed at spawn time, so worker caches stay disjoint
    across processes and survive restarts.
    """

    #: Seconds to wait for the child's socket to accept connections.
    STARTUP_TIMEOUT = 15.0

    def __init__(
        self,
        worker_id: str,
        *,
        host: str = "127.0.0.1",
        seed: int = 0,
        model: str | None = None,
        cache_dir: str | os.PathLike | None = None,
        batch_size: int = 8,
        engine_workers: int = 8,
        timeout: float = 60.0,
    ):
        self.worker_id = worker_id
        self.host = host
        self.timeout = timeout
        #: Shard directory the child owns (migration reads/writes it from
        #: the router side; the child warms lazily — see docs).
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: Lazily-built pooled transport to the child (keep-alive, binary
        #: framing negotiated) — worker hops ride the same codepath as
        #: ``Client.remote`` instead of paying a connection per batch.
        self._backend: "_RemoteBackend | None" = None
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # The free-port probe is racy (the port is released before the child
        # binds it); a child that dies during startup — the symptom of losing
        # that race — gets a fresh port and another try.
        for attempt in range(3):
            self.port = _free_port(host)
            command = [
                sys.executable,
                "-m",
                "repro",
                "--seed",
                str(seed),
                "serve",
                "--host",
                host,
                "--port",
                str(self.port),
                "--batch-size",
                str(batch_size),
                "--workers",
                str(engine_workers),
            ]
            if model is not None:
                command += ["--model", model]
            if cache_dir is not None:
                command += ["--cache-dir", str(cache_dir)]
            self._process = subprocess.Popen(
                command,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                self._wait_ready()
                return
            except _StartupExit:
                if attempt == 2:
                    raise ClusterError(
                        f"worker {self.worker_id} exited with "
                        f"{self._process.returncode} during startup "
                        f"(3 attempts)"
                    )

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + self.STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            if self._process.poll() is not None:
                raise _StartupExit()
            try:
                with socket.create_connection((self.host, self.port), timeout=0.25):
                    return
            except OSError:
                time.sleep(0.05)
        self.close()
        raise ClusterError(f"worker {self.worker_id} never became reachable")

    # ----------------------------------------------------------------- running
    def submit(
        self,
        specs: Sequence[TaskSpec],
        priority: int = 0,
        *,
        tenant: str = DEFAULT_TENANT,
        weight: float = 1.0,
    ) -> list[TaskResult]:
        # The specs leave the process here, as v2 envelopes carrying
        # ``priority``, ``tenant`` and the bound trace and span (the
        # envelope's defaults), so the child's subtree parents under the
        # caller's span.  The child's service is tenancy-free, so it
        # resolves every envelope to ``default`` at weight 1: its engine
        # honors only ``priority``.
        from ..api.errors import TransportError
        from ..api.protocol import decode_response, encode_request

        # No liveness probe first: a child that is gone or unreachable fails
        # the send, and the router's sweep and the Supervisor ping it.
        if self._process.poll() is not None:
            raise WorkerDeadError(f"worker {self.worker_id} process is gone")
        requests = [
            encode_request(spec, request_id, priority=priority, tenant=tenant)
            for request_id, spec in enumerate(specs)
        ]
        try:
            responses = self._transport().send(requests)
        except TransportError as exc:
            raise WorkerDeadError(
                f"worker {self.worker_id} dropped a batch: {exc}"
            ) from exc
        return [decode_response(response) for response in responses]

    def _transport(self) -> "_RemoteBackend":
        if self._backend is None:
            from ..api.client import _RemoteBackend

            self._backend = _RemoteBackend(self.host, self.port, self.timeout)
        return self._backend

    # ------------------------------------------------------------------ health
    def ping(self) -> bool:
        if self._process.poll() is not None:
            return False
        try:
            with socket.create_connection((self.host, self.port), timeout=0.5):
                return True
        except OSError:
            return False

    # --------------------------------------------------------------- lifecycle
    def _drop_transport(self) -> None:
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()

    def close(self) -> None:
        self._drop_transport()
        if self._process.poll() is None:
            self._process.terminate()
            try:
                self._process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self._process.kill()
                self._process.wait(timeout=5.0)

    def kill(self) -> None:
        """Hard-kill the child (the crash the router must survive)."""
        self._drop_transport()
        if self._process.poll() is None:
            self._process.kill()
            self._process.wait(timeout=5.0)

    def shard_path(self) -> "Path | None":
        return self.cache_dir


def _free_port(host: str) -> int:
    """Ask the OS for an unused TCP port.

    The probe is inherently racy — the port is free only until something
    else grabs it; :class:`SubprocessWorker` retries with a fresh port when
    its child loses that race and dies during startup.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]
