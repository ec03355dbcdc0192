"""Operational CLI helpers behind ``python -m repro``.

:mod:`repro.__main__` owns argument parsing and command registration; the
heavier command bodies that are worth testing (and sharing) on their own
live here:

* :mod:`repro.cli.fetch` — one snapshot-fetching path for every stats
  consumer (``repro stats``, ``repro top``, ``repro doctor``): main-port
  :class:`~repro.api.stats_spec.StatsSpec` requests, ``--stats-port``
  side-channel HTTP reads, and probe/doctor GETs —
  all failing with a :class:`~repro.cli.fetch.StatsUnreachable` that the
  commands turn into a clear message and a non-zero exit instead of a raw
  traceback.
* :mod:`repro.cli.top` — the ``repro top`` live table (per-tenant QPS,
  windowed p99, shed rate, error-budget headroom, SLO state) and the
  watch loop that repaints it.
"""

from .fetch import StatsUnreachable, fetch_probe, fetch_snapshot
from .top import render_top, watch_loop

__all__ = [
    "StatsUnreachable",
    "fetch_probe",
    "fetch_snapshot",
    "render_top",
    "watch_loop",
]
