"""Declarative SLOs with multi-window burn-rate alerts, plus health probes.

The time-series layer (:mod:`repro.obs.timeseries`) answers "what happened
over the last 10s/1m/5m"; this module interprets it.  An :class:`SLOSpec`
declares one objective:

* ``kind="latency"`` — a percentile of a latency histogram must stay at or
  under ``threshold`` seconds (e.g. *p99 of ``tenant.alice.latency`` ≤
  250 ms*);
* ``kind="error_rate"`` — the fraction of bad outcomes (a counter) over
  total outcomes must not burn the error ``budget`` faster than
  ``burn_rate`` times its sustainable pace (the classic SRE multi-window
  burn-rate rule).

Objectives are evaluated over **every** configured window and fire only
when all of them breach together: the short window proves the problem is
happening *now* (fast recovery detection), the long one that it is
*significant* (no flapping on a single slow request).  Transitions emit
``slo.breach`` / ``slo.recovered`` events and bump ``slo.*`` metrics, and
the firing set is exported as the ``alerts`` section of stats snapshots.

Per-tenant objectives ride the existing metric naming: ``tenant="alice"``
defaults the latency metric to ``tenant.alice.latency`` and the error-rate
counters to ``tenant.alice.rate_limited`` over
``tenant.alice.admitted + tenant.alice.rate_limited`` — nothing new is
instrumented, the SLO layer just reads what tenancy already records.

:class:`HealthMonitor` bundles one sampler + one engine behind the three
operational questions a supervisor asks: *alive?* (:meth:`health`),
*should I route traffic here?* (:meth:`ready` — not overloaded, no
page-severity alert firing, workers alive in cluster mode) and *what is
going on?* (:meth:`sections`, merged into stats snapshots).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .events import emit_event
from .metrics import MetricsRegistry, get_default_registry
from .periodic import PeriodicLoop
from .timeseries import TimeSeriesSampler, parse_window

#: Severities, most urgent first.  ``page`` gates readiness; ``ticket``
#: only surfaces in stats/`repro top`.
SEVERITIES = ("page", "ticket")

#: Knobs the serialized SLO forms accept.
_SPEC_KEYS = (
    "kind",
    "metric",
    "total",
    "percentile",
    "threshold",
    "budget",
    "burn_rate",
    "severity",
    "tenant",
    "windows",
)


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective (see the module docstring for semantics)."""

    name: str
    kind: str = "latency"
    #: Latency: histogram metric name.  Error rate: the *bad* counter.
    metric: str = ""
    #: Error rate only: ``+``-joined counter names forming the total.
    total: str = ""
    #: Latency only: the tracked percentile, as a fraction in (0, 1).
    percentile: float = 0.99
    #: Latency only: breach when the windowed percentile exceeds this (s).
    threshold: float | None = None
    #: Error rate only: tolerated bad fraction (the error budget).
    budget: float = 0.01
    #: Error rate only: firing multiple of the budget (burn >= this fires).
    burn_rate: float = 1.0
    severity: str = "page"
    #: Optional tenant; defaults metric names onto ``tenant.<name>.*``.
    tenant: str = ""
    windows: tuple[str, ...] = ("10s", "1m")

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO name must be a non-empty string")
        if self.kind not in ("latency", "error_rate"):
            raise ValueError(
                f"SLO {self.name!r}: kind must be 'latency' or 'error_rate', "
                f"got {self.kind!r}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"SLO {self.name!r}: severity must be one of {list(SEVERITIES)}"
            )
        if not 0.0 < self.percentile < 1.0:
            raise ValueError(f"SLO {self.name!r}: percentile must be in (0, 1)")
        if self.kind == "latency" and (self.threshold is None or self.threshold <= 0):
            raise ValueError(f"SLO {self.name!r}: latency SLOs need threshold > 0")
        if self.kind == "error_rate" and not 0.0 < self.budget <= 1.0:
            raise ValueError(f"SLO {self.name!r}: budget must be in (0, 1]")
        if self.burn_rate <= 0:
            raise ValueError(f"SLO {self.name!r}: burn_rate must be positive")
        if not self.windows:
            raise ValueError(f"SLO {self.name!r}: at least one window required")
        for label in self.windows:
            parse_window(label)  # raises on malformed labels
        if not self.resolved_metric():
            raise ValueError(
                f"SLO {self.name!r}: metric required (or tenant= to default it)"
            )

    # ------------------------------------------------------------- resolution
    def resolved_metric(self) -> str:
        """The histogram (latency) / bad-counter (error rate) metric name."""
        if self.metric:
            return self.metric
        if self.tenant:
            suffix = "latency" if self.kind == "latency" else "rate_limited"
            return f"tenant.{self.tenant}.{suffix}"
        return ""

    def resolved_total(self) -> tuple[str, ...]:
        """The counters summing to the total population (error rate only)."""
        if self.total:
            return tuple(part.strip() for part in self.total.split("+") if part.strip())
        if self.tenant:
            return (
                f"tenant.{self.tenant}.admitted",
                f"tenant.{self.tenant}.rate_limited",
            )
        return ()

    def window_seconds(self) -> tuple[tuple[str, float], ...]:
        return tuple((label, parse_window(label)) for label in self.windows)

    # ----------------------------------------------------------- serialization
    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": self.kind,
            "metric": self.resolved_metric(),
            "severity": self.severity,
            "windows": list(self.windows),
        }
        if self.tenant:
            payload["tenant"] = self.tenant
        if self.kind == "latency":
            payload["percentile"] = self.percentile
            payload["threshold"] = self.threshold
        else:
            payload["total"] = "+".join(self.resolved_total())
            payload["budget"] = self.budget
            payload["burn_rate"] = self.burn_rate
        return payload

    @classmethod
    def from_payload(cls, name: str, payload: Mapping[str, Any]) -> "SLOSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(f"SLO {name!r}: config must be an object")
        unknown = set(payload) - set(_SPEC_KEYS)
        if unknown:
            raise ValueError(
                f"SLO {name!r}: unknown config keys {sorted(unknown)}; "
                f"expected {list(_SPEC_KEYS)}"
            )
        knobs = dict(payload)
        if "percentile" in knobs:
            knobs["percentile"] = _fraction(name, knobs["percentile"])
        if "windows" in knobs:
            windows = knobs["windows"]
            if isinstance(windows, str):
                windows = windows.replace(":", " ").split()
            knobs["windows"] = tuple(str(label) for label in windows)
        return cls(name=name, **knobs)

    @classmethod
    def parse_inline(cls, text: str) -> "SLOSpec":
        """Parse the CLI form ``name[,knob=value,...]``.

        Window lists use ``:`` between labels (``windows=10s:1m``) since
        ``,`` separates knobs.  Percentiles accept both fractions and
        percents (``percentile=0.99`` ≡ ``percentile=99``).
        """
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if not parts:
            raise ValueError("empty SLO specification")
        name, payload = parts[0], {}
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"SLO {name!r}: expected knob=value, got {part!r}")
            key = key.strip()
            if key not in _SPEC_KEYS:
                raise ValueError(
                    f"SLO {name!r}: unknown knob {key!r}; "
                    f"expected one of {list(_SPEC_KEYS)}"
                )
            if key in ("percentile", "threshold", "budget", "burn_rate"):
                try:
                    payload[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"SLO {name!r}: {key} must be numeric, got {value!r}"
                    ) from None
            else:
                payload[key] = value.strip()
        return cls.from_payload(name, payload)


def _fraction(name: str, value: Any) -> float:
    """Accept percentiles as fractions (0.99) or percents (99)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"SLO {name!r}: percentile must be numeric") from None
    if number >= 1.0:
        number /= 100.0
    return number


def load_slos(path: str | Path) -> list[SLOSpec]:
    """Load the JSON-file form: ``{"name": {knobs...}, ...}``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"SLOs file {path}: bad JSON: {exc}") from None
    if not isinstance(payload, Mapping):
        raise ValueError(f"SLOs file {path}: must be an object mapping name -> knobs")
    return [SLOSpec.from_payload(name, knobs) for name, knobs in payload.items()]


@dataclass
class _ObjectiveState:
    """Mutable evaluation state of one SLO."""

    spec: SLOSpec
    firing: bool = False
    since: float | None = None  # monotonic time of the last transition
    values: dict[str, Any] = field(default_factory=dict)
    budget_remaining: float | None = None


class SLOEngine:
    """Evaluates a set of objectives against a sampler's rolling windows.

    ``evaluate()`` is idempotent per sample: it recomputes every objective,
    flips alert states on threshold crossings, emits transition events and
    keeps per-objective current values for the stats payload.  It never
    raises on missing series — an objective whose metric has no data yet
    simply is not breaching.
    """

    def __init__(
        self,
        sampler: TimeSeriesSampler,
        slos: Sequence[SLOSpec] = (),
        *,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        events: Callable[..., Any] = emit_event,
    ):
        names = [spec.name for spec in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.sampler = sampler
        self._clock = clock
        self._emit = events
        metrics = metrics or get_default_registry()
        self._m_breaches = metrics.counter("slo.breaches")
        self._m_recoveries = metrics.counter("slo.recoveries")
        self._m_firing = metrics.gauge("slo.firing")
        self._states = {spec.name: _ObjectiveState(spec) for spec in slos}
        self._lock = threading.Lock()

    @property
    def specs(self) -> list[SLOSpec]:
        return [state.spec for state in self._states.values()]

    # -------------------------------------------------------------- evaluation
    def evaluate(self) -> list[dict[str, Any]]:
        """Re-evaluate every objective; returns the firing alerts payload."""
        now = self._clock()
        with self._lock:
            for state in self._states.values():
                breaching = self._evaluate_one(state)
                if breaching and not state.firing:
                    state.firing = True
                    state.since = now
                    self._m_breaches.inc()
                    self._emit_safe("slo.breach", state)
                elif not breaching and state.firing:
                    state.firing = False
                    state.since = now
                    self._m_recoveries.inc()
                    self._emit_safe("slo.recovered", state)
            firing = sum(1 for state in self._states.values() if state.firing)
            self._m_firing.set(firing)
            return self._alerts_locked(now)

    def _evaluate_one(self, state: _ObjectiveState) -> bool:
        spec = state.spec
        values: dict[str, Any] = {}
        breaches: list[bool] = []
        for label, seconds in spec.window_seconds():
            if spec.kind == "latency":
                value = self.sampler.quantile(
                    spec.resolved_metric(), spec.percentile, seconds
                )
                values[label] = None if value is None else round(value, 9)
                breaches.append(
                    value is not None
                    and spec.threshold is not None
                    and value > spec.threshold
                )
            else:
                bad = self.sampler.counter_delta(spec.resolved_metric(), seconds)
                total = 0.0
                for counter in spec.resolved_total():
                    total += self.sampler.counter_delta(counter, seconds) or 0.0
                if bad is None or total <= 0:
                    values[label] = None
                    breaches.append(False)
                    continue
                ratio = bad / total
                burn = ratio / spec.budget
                values[label] = {
                    "bad": bad,
                    "total": total,
                    "ratio": round(ratio, 9),
                    "burn": round(burn, 9),
                }
                breaches.append(burn >= spec.burn_rate)
        state.values = values
        if spec.kind == "error_rate":
            # Budget remaining over the longest window: the headroom figure
            # `repro top` renders per tenant.
            longest = values.get(spec.windows[-1])
            if isinstance(longest, dict):
                state.budget_remaining = round(
                    min(1.0, max(0.0, 1.0 - longest["burn"])), 9
                )
            else:
                state.budget_remaining = 1.0
        # Multi-window rule: every configured window must breach at once.
        return bool(breaches) and all(breaches)

    def _emit_safe(self, event: str, state: _ObjectiveState) -> None:
        """Emit a transition event; a broken sink never breaks evaluation.

        The state flip already happened — losing one event line beats
        killing the monitor tick (and with it probes and alerting).
        """
        try:
            self._emit(event, **self._transition_fields(state))
        except Exception:  # pragma: no cover - defensive
            pass

    def _transition_fields(self, state: _ObjectiveState) -> dict[str, Any]:
        spec = state.spec
        # ``slo_kind``, not ``kind``: the latter is the event's own type slot.
        fields: dict[str, Any] = {
            "slo": spec.name,
            "slo_kind": spec.kind,
            "severity": spec.severity,
            "metric": spec.resolved_metric(),
            "windows": dict(state.values),
        }
        if spec.tenant:
            fields["tenant"] = spec.tenant
        if spec.kind == "latency":
            fields["percentile"] = spec.percentile
            fields["threshold"] = spec.threshold
        else:
            fields["budget"] = spec.budget
            fields["burn_rate"] = spec.burn_rate
        return fields

    # ----------------------------------------------------------------- queries
    def alerts(self) -> list[dict[str, Any]]:
        """The firing alerts (most urgent severity first)."""
        with self._lock:
            return self._alerts_locked(self._clock())

    def _alerts_locked(self, now: float) -> list[dict[str, Any]]:
        alerts = []
        for state in self._states.values():
            if not state.firing:
                continue
            alert = self._transition_fields(state)
            alert["state"] = "firing"
            alert["for_s"] = round(now - (state.since or now), 3)
            alerts.append(alert)
        alerts.sort(key=lambda a: SEVERITIES.index(a["severity"]))
        return alerts

    def page_firing(self) -> bool:
        """Whether any page-severity alert is currently firing."""
        with self._lock:
            return any(
                state.firing and state.spec.severity == "page"
                for state in self._states.values()
            )

    def payload(self) -> dict[str, Any]:
        """Every objective's declaration + current evaluation (stats section)."""
        with self._lock:
            objectives = {}
            for state in self._states.values():
                entry = state.spec.to_payload()
                entry["state"] = "firing" if state.firing else "ok"
                entry["values"] = dict(state.values)
                if state.budget_remaining is not None:
                    entry["budget_remaining"] = state.budget_remaining
                objectives[state.spec.name] = entry
            return objectives


class HealthMonitor(PeriodicLoop):
    """One sampler + one SLO engine behind liveness/readiness answers.

    ``start()``/``stop()`` (from :class:`~repro.obs.periodic.PeriodicLoop`) run
    :meth:`tick` every ``interval`` seconds on the ``repro-slo`` thread;
    without them the probes and stats sections tick on demand.

    Parameters
    ----------
    registry:
        Metrics registry to sample (process default when ``None``).
    slos:
        Objectives to evaluate (may be empty — the time-series layer and
        the probes are useful on their own).
    interval:
        Sampling/evaluation period of the background loop and the
        freshness bound of on-demand ticks.
    admission:
        The front door's :class:`~repro.obs.admission.AdmissionController`;
        readiness reports *not ready* while it is saturated.
    workers_alive:
        Cluster mode: zero-argument callable returning ``(live, total)``
        worker counts; readiness requires every *expected* worker alive.
        The ring is elastic: planned joins/leaves adjust ``total`` in step
        (a draining worker is expected-absent), so only a crash — a worker
        off the ring that is not draining — degrades readiness, until the
        Supervisor revives it.
    clock:
        Monotonic seconds source shared with the sampler/engine.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        slos: Sequence[SLOSpec] = (),
        interval: float = 1.0,
        admission: Any = None,
        workers_alive: Callable[[], tuple[int, int]] | None = None,
        clock: Callable[[], float] = time.monotonic,
        sampler: TimeSeriesSampler | None = None,
    ):
        super().__init__(self.tick, interval, "repro-slo")
        self.sampler = sampler or TimeSeriesSampler(
            registry, interval=interval, clock=clock
        )
        self.engine = SLOEngine(
            self.sampler, slos, clock=clock, metrics=registry
        )
        self.admission = admission
        self.workers_alive = workers_alive
        self._clock = clock
        self._started_at = clock()
        self._ticks = 0
        self._last_tick: float | None = None
        self._tick_lock = threading.Lock()

    # ------------------------------------------------------------------- ticks
    def tick(self) -> None:
        """One sample + one SLO evaluation (the unit of monitoring time)."""
        with self._tick_lock:
            self.sampler.sample()
            self.engine.evaluate()
            self._ticks += 1
            self._last_tick = self._clock()

    def ensure_fresh(self) -> None:
        """Tick now unless the background loop ticked within one interval."""
        last = self._last_tick
        if last is not None and self._clock() - last < self.interval:
            return
        self.tick()

    # ------------------------------------------------------------------ probes
    def health(self) -> dict[str, Any]:
        """Liveness: the process is up and monitoring is running."""
        return {
            "status": "ok",
            "uptime_s": round(self._clock() - self._started_at, 3),
            "ticks": self._ticks,
            "alerts_firing": len(self.engine.alerts()),
        }

    def ready(self) -> tuple[bool, dict[str, Any]]:
        """Readiness: ``(ok, detail)`` — should traffic be routed here?

        Not ready while (a) a page-severity alert is firing, (b) admission
        control is saturated (pending at or past capacity), or (c) any
        cluster worker has died.  ``detail["reasons"]`` names every failing
        condition so a probe log explains itself.
        """
        self.ensure_fresh()
        reasons: list[str] = []
        if self.engine.page_firing():
            firing = [
                alert["slo"]
                for alert in self.engine.alerts()
                if alert["severity"] == "page"
            ]
            reasons.append(f"page alert firing: {', '.join(firing)}")
        detail: dict[str, Any] = {}
        admission = self.admission
        if admission is not None and admission.capacity is not None:
            pending = admission.pending
            detail["admission"] = {"pending": pending, "capacity": admission.capacity}
            if pending >= admission.capacity:
                reasons.append(
                    f"overloaded: {pending} pending of {admission.capacity} capacity"
                )
        if self.workers_alive is not None:
            live, total = self.workers_alive()
            detail["workers"] = {"live": live, "total": total}
            if live < total or live == 0:
                reasons.append(f"workers dead: {live} of {total} alive")
        ok = not reasons
        detail["ready"] = ok
        detail["reasons"] = reasons
        return ok, detail

    # ------------------------------------------------------------------- stats
    def sections(self, prefix: str = "") -> dict[str, Any]:
        """The monitor-derived sections merged into a stats snapshot.

        ``prefix`` narrows the (potentially large) time-series section the
        way metric snapshots narrow; alerts and SLO states are always
        reported in full — a firing page should never be filtered away.
        """
        self.ensure_fresh()
        ok, ready_detail = self.ready()
        health = self.health()
        health["ready"] = ok
        health["reasons"] = ready_detail["reasons"]
        if "workers" in ready_detail:
            # Cluster mode: surface the live/total worker count so clients
            # and ``repro top`` can render elasticity without a second probe.
            health["workers"] = ready_detail["workers"]
        if not ok:
            health["status"] = "degraded"
        return {
            "alerts": self.engine.alerts(),
            "slos": self.engine.payload(),
            "timeseries": self.sampler.windows_payload(prefix=prefix),
            "health": health,
        }


__all__ = [
    "HealthMonitor",
    "SEVERITIES",
    "SLOEngine",
    "SLOSpec",
    "load_slos",
]
