"""Snapshot fetching shared by ``repro stats`` / ``top`` / ``doctor``.

Two transports reach a serving front-end's observability state:

* the **main port** — a :class:`~repro.api.stats_spec.StatsSpec` request
  over the line protocol (supports ``prefix``/``tenant``/``reset``);
* the **stats side channel** (``serve --stats-port``) — an HTTP GET
  (``/`` for the snapshot, ``/metrics``, ``/healthz``, ``/readyz``,
  ``/doctor``), readable even while the main port is saturated.

Every failure mode — connection refused, timeout, a non-HTTP peer, garbage
JSON, a JSON payload that is not an object — raises
:class:`StatsUnreachable` with a message naming the endpoint and the
reason, so CLI commands print one line and exit non-zero instead of
spilling a traceback.
"""

from __future__ import annotations

import json
import socket
from typing import Any


class StatsUnreachable(Exception):
    """A stats/probe endpoint could not be read; the message says why."""


def fetch_snapshot(
    host: str,
    *,
    port: int = 8765,
    stats_port: int | None = None,
    timeout: float = 10.0,
    prefix: str = "",
    tenant: str | None = None,
    reset: bool = False,
) -> dict[str, Any]:
    """One stats snapshot from a running front-end (dict, or raises).

    With ``stats_port`` the side channel's ``GET /`` is read (``prefix``/
    ``tenant``/``reset`` are main-port-only and ignored there); otherwise a
    ``stats`` request goes through the main port.
    """
    if stats_port is not None:
        return fetch_probe(host, stats_port, "/", timeout=timeout)[1]
    from ..api import ApiError, Client

    try:
        with Client.remote(host, port, timeout=timeout) as client:
            snapshot = client.stats(prefix=prefix, tenant=tenant, reset=reset)
    except ApiError as exc:
        # TransportError (unreachable) and structured error responses
        # (e.g. an older service without the stats type) alike.
        raise StatsUnreachable(str(exc)) from exc
    if not isinstance(snapshot, dict):
        raise StatsUnreachable(
            f"service {host}:{port} answered {type(snapshot).__name__}, "
            "expected a JSON object"
        )
    return snapshot


def http_get(
    host: str, port: int, path: str, *, timeout: float = 10.0
) -> tuple[int, str]:
    """Minimal ``GET`` against the stats side channel: ``(status, body)``."""
    endpoint = f"stats port {host}:{port}"
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            conn.sendall(
                f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode("ascii")
            )
            raw = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                raw += chunk
    except OSError as exc:
        raise StatsUnreachable(f"cannot reach {endpoint}: {exc}") from exc
    head, sep, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0]
    parts = status_line.split()
    if not sep or len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise StatsUnreachable(f"{endpoint} did not speak HTTP")
    try:
        status = int(parts[1])
    except ValueError:
        raise StatsUnreachable(f"{endpoint} answered a malformed status line") from None
    return status, body.decode("utf-8", "replace")


def fetch_probe(
    host: str, port: int, path: str, *, timeout: float = 10.0
) -> tuple[int, dict[str, Any]]:
    """``GET`` a JSON endpoint (``/healthz``/``/readyz``/``/doctor``).

    Returns ``(http_status, payload)``; a non-object or unparseable body
    raises :class:`StatsUnreachable`.
    """
    status, body = http_get(host, port, path, timeout=timeout)
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise StatsUnreachable(
            f"stats port {host}:{port}{path} answered bad JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise StatsUnreachable(
            f"stats port {host}:{port}{path} answered "
            f"{type(payload).__name__}, expected a JSON object"
        )
    return status, payload


def fetch_prometheus(host: str, port: int, *, timeout: float = 10.0) -> str:
    """``GET /metrics`` text exposition from the stats side channel."""
    status, body = http_get(host, port, "/metrics", timeout=timeout)
    if status != 200:
        raise StatsUnreachable(
            f"stats port {host}:{port}/metrics answered HTTP {status}"
        )
    return body


__all__ = [
    "StatsUnreachable",
    "fetch_probe",
    "fetch_prometheus",
    "fetch_snapshot",
    "http_get",
]
