"""Observability layer: metrics, tracing, events, export, admission control.

The serving stack (engine → batcher → cache → router) grew fast; this
package is the measurement layer that keeps it honest.  Ten pieces:

* :mod:`repro.obs.metrics` — a dependency-free metrics core: thread-safe
  :class:`Counter`, :class:`Gauge` and fixed-bucket latency
  :class:`Histogram` objects behind a :class:`MetricsRegistry` whose
  ``snapshot()`` is plain JSON (counters, gauges, histogram percentiles).
  Every hot path of the stack is instrumented against the process-default
  registry, so one snapshot describes the whole serving process.
* :mod:`repro.obs.trace` — the :class:`Trace` context: every request gets a
  trace id that travels inside the v2 wire envelope (``"trace"`` key) and is
  echoed on the response, so a request can be followed client → service →
  logs without any shared infrastructure.
* :mod:`repro.obs.span` — hierarchical :class:`Span` timing nested under the
  trace: span/parent ids cross process boundaries via the envelope's
  ``"span"`` key, so one cluster request yields one causal tree
  (client → router → worker → engine → batcher → LLM).
* :mod:`repro.obs.events` — a bounded, thread-safe structured event log
  (ring buffer + optional JSONL file sink, deterministic head-based
  sampling by trace id) fed by completed spans and control-plane incidents;
  ``repro trace <id>`` renders its span waterfall.
* :mod:`repro.obs.export` — Prometheus/OpenMetrics text rendering of a
  metrics snapshot plus per-name exemplar trace ids, served from
  ``--stats-port`` via content negotiation.
* :mod:`repro.obs.admission` — load shedding: an
  :class:`AdmissionController` bounds in-flight and queued requests and
  rejects the excess with a structured ``overloaded`` protocol error
  (retry-after hint, queue depth, inflight count) instead of queueing
  unboundedly.
* :mod:`repro.obs.timeseries` — rolling ring-buffer views over the
  registry: windowed counter rates/deltas, gauge stats and histogram
  percentiles over 10s/1m/5m, sampled off the request path.
* :mod:`repro.obs.slo` — declarative latency/error-budget objectives
  (per-service and per-tenant) evaluated with multi-window burn-rate
  rules; a :class:`HealthMonitor` turns them into ``slo.breach`` events,
  an ``alerts`` stats section and ``/healthz`` + ``/readyz`` probes.
* :mod:`repro.obs.diagnostics` — one-shot ``repro doctor`` bundles
  (config, snapshot, rolling windows, alerts, event tail, thread stacks).
* :mod:`repro.obs.periodic` — the one periodic loop (callable, interval,
  named daemon thread) behind the monitor's tick, the cluster supervisor,
  the autoscaler and the router's health sweep.

Snapshots are exposed end-to-end: the ``stats`` wire type
(:class:`repro.api.stats_spec.StatsSpec`), :meth:`repro.api.Client.stats`,
``python -m repro stats`` and ``serve --stats-port``.  See
``docs/observability.md`` for the metric and span name catalogues.
"""

from .admission import (
    AdmissionController,
    serve_stats_in_thread,
    start_stats_server,
)
from .diagnostics import build_bundle, thread_stacks
from .events import (
    EventLog,
    configure_default_event_log,
    emit_event,
    get_default_event_log,
    render_waterfall,
)
from .export import ExemplarStore, get_default_exemplars, render_prometheus
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_default_registry,
)
from .slo import HealthMonitor, SLOEngine, SLOSpec, load_slos
from .span import Span, remote_span, set_tracing, span, tracing_enabled
from .timeseries import DEFAULT_WINDOWS, TimeSeriesSampler, parse_window
from .trace import Trace, new_trace_id

__all__ = [
    "AdmissionController",
    "Counter",
    "DEFAULT_WINDOWS",
    "EventLog",
    "ExemplarStore",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "MetricsRegistry",
    "SLOEngine",
    "SLOSpec",
    "Span",
    "TimeSeriesSampler",
    "Trace",
    "build_bundle",
    "configure_default_event_log",
    "emit_event",
    "get_default_event_log",
    "get_default_exemplars",
    "get_default_registry",
    "load_slos",
    "new_trace_id",
    "parse_window",
    "remote_span",
    "render_prometheus",
    "render_waterfall",
    "serve_stats_in_thread",
    "set_tracing",
    "span",
    "start_stats_server",
    "thread_stacks",
    "tracing_enabled",
]
