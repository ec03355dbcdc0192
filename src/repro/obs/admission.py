"""Admission control: bounded pending work, shed the rest, priorities first.

Unbounded queueing turns overload into latency collapse — every request
eventually times out instead of a few failing fast.  The serving service and
the cluster router instead run every JSON batch through an
:class:`AdmissionController`: a hard bound on *pending* requests (executing
plus queued).  A batch that would exceed the bound is rejected immediately
with a structured ``overloaded`` error carrying a retry-after hint, so
clients back off instead of piling on.

Capacity is the sum of the two knobs — ``max_inflight`` (requests the
executor should run at once) and ``max_queue_depth`` (requests allowed to
wait beyond that).  Leaving both ``None`` disables shedding entirely (the
pre-observability behaviour).

The companion dequeue policy lives in :mod:`repro.tenancy`: admitted tasks
wait for the engine's slots in a :class:`~repro.tenancy.WeightedFairQueue`,
which serves the fair-share tenant's highest-priority one first (v2 envelope
key ``"priority"``, higher first; FIFO within a priority) — so load shedding
never has to drop urgent work to protect itself.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Callable, Iterator
from contextlib import contextmanager

from .metrics import MetricsRegistry, get_default_registry


class AdmissionController:
    """Bounds pending requests; sheds the excess instead of queueing it.

    Parameters
    ----------
    max_inflight:
        Requests the executor is expected to run concurrently.
    max_queue_depth:
        Requests allowed to wait beyond ``max_inflight``.
    retry_after:
        Back-off hint (seconds) attached to shed responses.
    name:
        Metric prefix (``<name>.admitted`` / ``<name>.shed`` counters and a
        ``<name>.pending`` gauge).
    """

    def __init__(
        self,
        max_inflight: int | None = None,
        max_queue_depth: int | None = None,
        *,
        retry_after: float = 0.05,
        name: str = "admission",
        metrics: MetricsRegistry | None = None,
    ):
        for label, knob in (
            ("max_inflight", max_inflight),
            ("max_queue_depth", max_queue_depth),
        ):
            if knob is not None and knob < 0:
                raise ValueError(f"{label} must be non-negative")
        if retry_after < 0:
            raise ValueError("retry_after must be non-negative")
        self.max_inflight = max_inflight
        self.max_queue_depth = max_queue_depth
        self.retry_after = retry_after
        self.name = name
        metrics = metrics or get_default_registry()
        self._m_admitted = metrics.counter(f"{name}.admitted")
        self._m_shed = metrics.counter(f"{name}.shed")
        self._m_pending = metrics.gauge(f"{name}.pending")
        self._pending = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int | None:
        """Total pending requests allowed; ``None`` means unbounded."""
        if self.max_inflight is None and self.max_queue_depth is None:
            return None
        return (self.max_inflight or 0) + (self.max_queue_depth or 0)

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    @property
    def inflight(self) -> int:
        """Pending requests presumed executing (capped at ``max_inflight``)."""
        pending = self.pending
        if self.max_inflight is None:
            return pending
        return min(pending, self.max_inflight)

    @property
    def queued(self) -> int:
        """Pending requests waiting beyond the inflight allowance."""
        pending = self.pending
        if self.max_inflight is None:
            return 0
        return max(0, pending - self.max_inflight)

    # ------------------------------------------------------------ life-cycle
    def try_acquire(self, n: int = 1) -> bool:
        """Reserve capacity for ``n`` requests; False means shed them.

        A batch larger than the whole capacity is still admitted when
        nothing is pending — otherwise it could never run and every retry
        would shed forever.  The bound is on *concurrent* pending work, not
        on single-batch size.
        """
        capacity = self.capacity
        with self._lock:
            if (
                capacity is not None
                and self._pending > 0
                and self._pending + n > capacity
            ):
                self._m_shed.inc(n)
                return False
            self._pending += n
        self._m_admitted.inc(n)
        self._m_pending.inc(n)
        return True

    def release(self, n: int = 1) -> None:
        """Return capacity once the ``n`` admitted requests finished."""
        with self._lock:
            self._pending = max(0, self._pending - n)
        self._m_pending.dec(n)

    def snapshot(self) -> dict[str, Any]:
        """The ``admission`` block of a stats snapshot (knobs + live state)."""
        return {
            "max_inflight": self.max_inflight,
            "max_queue_depth": self.max_queue_depth,
            "pending": self.pending,
            "inflight": self.inflight,
            "queue_depth": self.queued,
            "retry_after": self.retry_after,
        }

    @contextmanager
    def admitted(self, n: int = 1) -> Iterator[bool]:
        """``with`` form: yields whether the work was admitted."""
        ok = self.try_acquire(n)
        try:
            yield ok
        finally:
            if ok:
                self.release(n)


# --------------------------------------------------------------- stats server
def _http_response(
    status: str, content_type: str, body: str, *, head: bool = False
) -> bytes:
    payload = body.encode("utf-8")
    header = (
        f"HTTP/1.0 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii")
    return header if head else header + payload


async def start_stats_server(
    snapshot_fn: Callable[[], dict],
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    monitor: Any = None,
    doctor_fn: Callable[[], dict] | None = None,
) -> asyncio.AbstractServer:
    """The ``serve --stats-port`` side channel: a minimal HTTP/1.0 endpoint.

    The endpoint never touches the engine, so stats stay readable while the
    main port is saturated (which is exactly when you want them).  It
    answers ``GET`` and ``HEAD``; ``curl``-able and scrapeable by stock
    Prometheus:

    * ``/metrics`` — the snapshot's ``"metrics"`` section in Prometheus text
      format 0.0.4 (with exemplar comments when the snapshot carries an
      ``"exemplars"`` section);
    * ``/healthz`` and ``/readyz`` — liveness/readiness probes backed by the
      host's :class:`~repro.obs.slo.HealthMonitor` (``/readyz`` answers
      **503** while not ready — a page-severity alert firing, admission
      saturated, or a cluster worker dead — so a stock HTTP health check
      needs no JSON parsing);
    * ``/doctor`` — a one-shot diagnostic bundle
      (:mod:`repro.obs.diagnostics`);
    * any other path — the full snapshot as JSON (what ``repro stats`` and
      ``repro top`` read with ``--stats-port``).

    A first line that is not a ``GET``/``HEAD`` request line, or none within
    0.25 s, is answered ``400`` and the connection closed.
    """

    json_type = "application/json; charset=utf-8"

    def json_body(payload: Any) -> str:
        return json.dumps(payload, ensure_ascii=False) + "\n"

    def route(path: str) -> tuple[str, str, str]:
        """``(status, content-type, body)`` for one HTTP path."""
        if path in ("/metrics", "/metrics/"):
            from .export import render_prometheus

            payload = snapshot_payload()
            body = render_prometheus(
                payload.get("metrics", {}), exemplars=payload.get("exemplars")
            )
            return "200 OK", "text/plain; version=0.0.4; charset=utf-8", body
        if path in ("/healthz", "/healthz/"):
            if monitor is None:
                return "200 OK", json_type, json_body({"status": "ok"})
            return "200 OK", json_type, json_body(monitor.health())
        if path in ("/readyz", "/readyz/"):
            if monitor is None:
                return "200 OK", json_type, json_body({"ready": True})
            ok, detail = monitor.ready()
            status = "200 OK" if ok else "503 Service Unavailable"
            return status, json_type, json_body(detail)
        if path in ("/doctor", "/doctor/"):
            if doctor_fn is not None:
                return "200 OK", json_type, json_body(doctor_fn())
            from .diagnostics import build_bundle

            bundle = build_bundle(snapshot_fn=snapshot_fn, monitor=monitor)
            return "200 OK", json_type, json_body(bundle)
        return "200 OK", json_type, json_body(snapshot_payload())

    def snapshot_payload() -> dict:
        try:
            return snapshot_fn()
        except Exception as exc:  # never kill the endpoint over one snapshot
            return {"error": str(exc)}

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await asyncio.wait_for(reader.readline(), timeout=0.25)
        except (asyncio.TimeoutError, ConnectionError):
            first = b""
        try:
            parts = first.decode("latin-1", "replace").split()
            if len(parts) >= 2 and parts[0] in ("GET", "HEAD"):
                while True:  # consume request headers up to the blank line
                    try:
                        line = await asyncio.wait_for(reader.readline(), timeout=0.25)
                    except (asyncio.TimeoutError, ConnectionError):
                        break
                    if line in (b"", b"\r\n", b"\n"):
                        break
                try:
                    status, content_type, body = route(parts[1].split("?", 1)[0])
                except Exception as exc:  # a broken route answers, not drops
                    status, content_type = "500 Internal Server Error", json_type
                    body = json_body({"error": str(exc)})
                head = parts[0] == "HEAD"
            else:
                status, content_type, head = "400 Bad Request", json_type, False
                body = json_body({"error": "the stats port speaks HTTP: GET or HEAD"})
            writer.write(_http_response(status, content_type, body, head=head))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, host, port)


def serve_stats_in_thread(
    snapshot_fn: Callable[[], dict],
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    monitor: Any = None,
    doctor_fn: Callable[[], dict] | None = None,
) -> int | None:
    """Run :func:`start_stats_server` on a daemon thread; returns the port.

    Used when the main front-end owns the foreground (stdin serving) or its
    own event loop cannot be shared.  Returns ``None`` when the server
    failed to come up within five seconds.
    """
    started = threading.Event()
    bound: dict[str, int] = {}

    def run() -> None:
        async def main() -> None:
            server = await start_stats_server(
                snapshot_fn, host, port, monitor=monitor, doctor_fn=doctor_fn
            )
            sockets = server.sockets or []
            if sockets:
                bound["port"] = sockets[0].getsockname()[1]
            started.set()
            async with server:
                await server.serve_forever()

        try:
            asyncio.run(main())
        except Exception:
            started.set()

    thread = threading.Thread(target=run, daemon=True, name="repro-stats")
    thread.start()
    started.wait(5.0)
    return bound.get("port")


__all__ = [
    "AdmissionController",
    "serve_stats_in_thread",
    "start_stats_server",
]
