"""The stats side channel: a minimal HTTP/1.0 server over a host's snapshot.

``serve --stats-port`` answers it on a thread of its own, off the request
path (:func:`serve_stats_in_thread`), so stats stay readable while the main
port is saturated.  :func:`start_stats_server` is the server itself, for a
caller that already runs an event loop.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Callable


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


class StatsThread:
    """A stats server running on a loop and thread of its own.

    ``port`` is the bound port; :meth:`close` stops the server and its loop
    and joins the thread (idempotent).
    """

    def __init__(self, port: int, loop: asyncio.AbstractEventLoop, stop: asyncio.Event):
        self.port = port
        self._loop = loop
        self._stop = stop
        self.thread = threading.current_thread()

    def close(self) -> None:
        if self.thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # the loop closed in between
                pass
            self.thread.join()


def serve_stats_in_thread(
    snapshot_fn: Callable[[], dict],
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    monitor: Any = None,
    doctor_fn: Callable[[], dict] | None = None,
) -> StatsThread | None:
    """Run :func:`start_stats_server` on a daemon thread of its own.

    Used when the main front-end owns the foreground (stdin serving) or its
    own event loop cannot be shared.  Returns the running
    :class:`StatsThread` (``.port``; ``.close()`` stops it), or ``None`` when
    the port cannot be bound.
    """
    started = threading.Event()
    handle: list[StatsThread] = []

    async def main() -> None:
        server = await start_stats_server(
            snapshot_fn, host, port, monitor=monitor, doctor_fn=doctor_fn
        )
        stop = asyncio.Event()
        handle.append(
            StatsThread(server.sockets[0].getsockname()[1], asyncio.get_running_loop(), stop)
        )
        started.set()
        async with server:
            await stop.wait()

    def run() -> None:
        try:
            asyncio.run(main())
        except OSError:
            pass  # the port could not be bound: the caller gets None
        finally:
            started.set()

    threading.Thread(target=run, daemon=True, name="repro-stats").start()
    started.wait()
    return handle[0] if handle else None


__all__ = [
    "StatsThread",
    "serve_stats_in_thread",
    "start_stats_server",
]
