"""The ``repro top`` table: live per-tenant serving health at a glance.

One render turns a stats snapshot (with the monitor sections PR 8 added —
``timeseries``, ``slos``, ``alerts``, ``health``) into a compact fixed-width
table: per tenant, the windowed request rate, windowed p99 latency, shed
rate (rate-limit + admission), remaining error budget and SLO state, plus a
header line with readiness and firing alerts.  Everything is computed
service-side by the rolling time-series layer; this module only formats.

:func:`watch_loop` is ``repro top``'s polling driver: ANSI home+clear
between frames, ``--once`` for scripts and CI.
"""

from __future__ import annotations

import time
from typing import Any, Callable, IO, Mapping

#: Preferred display window; falls back to the shortest one with data.
DEFAULT_WINDOW = "10s"

#: ANSI: clear screen + cursor home (what ``watch``/``top`` do per frame).
_CLEAR = "\x1b[2J\x1b[H"


def _series_window(
    series: Mapping[str, Any], name: str, window: str
) -> Mapping[str, Any]:
    """One metric's stats for ``window`` (or its shortest populated one)."""
    windows = (series.get(name) or {}).get("windows") or {}
    if window in windows:
        return windows[window]
    for stats in windows.values():
        return stats
    return {}


def _fmt(value: Any, scale: float = 1.0, digits: int = 1) -> str:
    if value is None:
        return "-"
    return f"{float(value) * scale:.{digits}f}"


def _tenant_names(snapshot: Mapping[str, Any]) -> list[str]:
    """Every tenant the snapshot knows about, from any section."""
    names: set[str] = set()
    tenancy = snapshot.get("tenancy") or {}
    names.update((tenancy.get("tenants") or {}).keys())
    for slo in (snapshot.get("slos") or {}).values():
        if slo.get("tenant"):
            names.add(slo["tenant"])
    series = (snapshot.get("timeseries") or {}).get("series") or {}
    for name in series:
        if name.startswith("tenant."):
            parts = name.split(".")
            if len(parts) >= 3:
                names.add(parts[1])
    return sorted(names)


def _slo_cells(
    snapshot: Mapping[str, Any], tenant: str | None
) -> tuple[str, str]:
    """``(budget_remaining, slo_state)`` cells for one tenant (or global)."""
    budget: float | None = None
    states: list[str] = []
    for slo in (snapshot.get("slos") or {}).values():
        if (slo.get("tenant") or None) != tenant:
            continue
        states.append(slo.get("state", "ok"))
        remaining = slo.get("budget_remaining")
        if remaining is not None:
            budget = remaining if budget is None else min(budget, remaining)
    if not states:
        return "-", "-"
    state = "FIRING" if "firing" in states else "ok"
    return ("-" if budget is None else f"{budget * 100:.0f}%"), state


def render_top(snapshot: Mapping[str, Any], *, window: str = DEFAULT_WINDOW) -> str:
    """Render one stats snapshot as the ``repro top`` table."""
    series = (snapshot.get("timeseries") or {}).get("series") or {}
    health = snapshot.get("health") or {}
    alerts = snapshot.get("alerts") or []
    front = snapshot.get("service") or snapshot.get("cluster") or {}
    admission = (snapshot.get("service") or {}).get("admission") or snapshot.get(
        "admission"
    ) or {}

    ready = health.get("ready")
    ready_text = "yes" if ready else ("n/a" if ready is None else "NO")
    # Cluster mode: the health section carries live/total worker counts
    # (elastic — resizes and crash restarts move them at runtime).
    workers = health.get("workers") or {}
    workers_text = (
        f" | workers: {workers.get('live', 0)}/{workers.get('total', 0)}"
        if workers
        else ""
    )
    lines = [
        f"repro top — window {window} | ready: {ready_text}{workers_text} | "
        f"alerts firing: {len(alerts)} | pending: {admission.get('pending', 0)} | "
        f"served: {front.get('requests_served', 0)}",
        f"{'TENANT':<16} {'QPS':>8} {'P99_MS':>8} {'SHED_PS':>8} "
        f"{'BUDGET':>7} {'SLO':>7}",
    ]

    def row(
        label: str,
        rate_name: str,
        latency_name: str,
        shed_names: "list[str]",
        tenant: str | None,
    ) -> str:
        qps = _series_window(series, rate_name, window).get("rate")
        p99 = _series_window(series, latency_name, window).get("p99")
        shed = None
        for name in shed_names:
            value = _series_window(series, name, window).get("rate")
            if value is not None:
                shed = (shed or 0.0) + value
        budget, state = _slo_cells(snapshot, tenant)
        return (
            f"{label:<16} {_fmt(qps):>8} {_fmt(p99, 1000.0):>8} "
            f"{_fmt(shed):>8} {budget:>7} {state:>7}"
        )

    # The host's own request counter: a router counts ``router.requests``.
    host = "router" if snapshot.get("cluster") else "service"
    lines.append(
        row(
            "(service)",
            f"{host}.requests",
            "service.batch_latency",
            ["service.admission.shed", "router.admission.shed"],
            None,
        )
    )
    for tenant in _tenant_names(snapshot):
        prefix = f"tenant.{tenant}"
        lines.append(
            row(
                tenant,
                f"{prefix}.admitted",
                f"{prefix}.latency",
                [f"{prefix}.rate_limited"],
                tenant,
            )
        )
    for alert in alerts:
        lines.append(
            f"ALERT [{alert.get('severity', '?')}] {alert.get('slo', '?')} "
            f"firing for {alert.get('for_s', 0)}s on {alert.get('metric', '?')}"
        )
    reasons = health.get("reasons") or []
    if reasons:
        lines.append("NOT READY: " + "; ".join(reasons))
    return "\n".join(lines)


def watch_loop(
    fetch: Callable[[], Mapping[str, Any]],
    render: Callable[[Mapping[str, Any]], str],
    *,
    interval: float = 2.0,
    once: bool = False,
    out: IO[str],
    err: IO[str],
) -> int:
    """Poll ``fetch`` and paint ``render`` until interrupted.

    The driver of ``repro top``: one frame per ``interval`` seconds
    (screen cleared between frames), ``once`` prints a single frame with
    no clearing (scripts, CI smoke).  An unreachable endpoint prints its
    message and exits 1 — on the first frame immediately; mid-watch it also
    ends the loop (the service went away).
    """
    from .fetch import StatsUnreachable

    while True:
        try:
            snapshot = fetch()
        except StatsUnreachable as exc:
            print(str(exc), file=err)
            return 1
        frame = render(snapshot)
        if once:
            print(frame, file=out)
            return 0
        print(_CLEAR + frame, file=out, flush=True)
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


__all__ = ["DEFAULT_WINDOW", "render_top", "watch_loop"]
