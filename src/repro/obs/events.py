"""Bounded, thread-safe structured event log (JSONL) with trace sampling.

Completed spans (:mod:`repro.obs.span`) and control-plane incidents
(admission sheds, worker deaths, router requeues, persistent-cache
anomalies) all land here as flat JSON-able dicts.  Two sinks:

* a **ring buffer** (``collections.deque(maxlen=capacity)``) so a process
  can always answer "what just happened" without unbounded memory — old
  events are evicted, never blocked on;
* an optional **JSONL file sink** — one ``O_APPEND`` line per event, so
  several processes (e.g. spawned subprocess workers inheriting
  ``$REPRO_EVENTS_FILE``) can interleave into one file and a cross-process
  trace can be reassembled from it (``repro trace <id>``).

Sampling is **head-based and deterministic by trace id**: the keep/drop
verdict is a pure function of ``(trace_id, sample_rate)``, so every span of
a trace — in every process — gets the same verdict and trees never come
back half-sampled.  Events without a trace id (worker deaths, cache
anomalies) are always recorded; they are rare and load-bearing.

The process-default log is configured from the environment
(``REPRO_EVENTS_FILE`` / ``REPRO_EVENTS_SAMPLE`` / ``REPRO_EVENTS_CAPACITY``)
on first use; :func:`configure_default_event_log` replaces it explicitly and
can export the file path back into ``os.environ`` so spawned workers
inherit the sink.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from collections import deque
from typing import Any, IO, Iterable, Mapping

#: Environment knobs of the process-default event log.
ENV_EVENTS_FILE = "REPRO_EVENTS_FILE"
ENV_EVENTS_SAMPLE = "REPRO_EVENTS_SAMPLE"
ENV_EVENTS_CAPACITY = "REPRO_EVENTS_CAPACITY"
ENV_EVENTS_MAX_BYTES = "REPRO_EVENTS_MAX_BYTES"
ENV_EVENTS_KEEP = "REPRO_EVENTS_KEEP"

#: Default ring-buffer capacity (events kept in memory).
DEFAULT_CAPACITY = 4096

#: Default rotated files kept alongside the live sink (``<path>.1``..``.K``).
DEFAULT_ROTATED_KEEP = 3


def sample_decision(trace_id: str, rate: float) -> bool:
    """Deterministic keep/drop verdict for a trace id at ``rate``.

    Stable across processes and runs (CRC-32 of the id), so every span of a
    trace lands on the same side of the cut wherever it was produced.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    bucket = zlib.crc32(trace_id.encode("utf-8", "replace")) % 10_000
    return bucket < rate * 10_000


class EventLog:
    """Ring buffer + optional JSONL file sink for structured events.

    Parameters
    ----------
    capacity:
        Maximum events kept in memory; older events are evicted (the
        ``dropped`` counter says how many).
    path:
        Optional JSONL file appended to (one line per event); opened
        lazily on first emit.
    sample_rate:
        Fraction of traces whose events are kept (head-based, by trace id).
        Trace-less events are always kept.
    max_bytes:
        Size-based rotation bound for the file sink: once the live file
        reaches this many bytes it is rotated to ``<path>.1`` (older
        rotations shifting to ``.2`` … ``.keep``, the oldest deleted) and a
        fresh file is started — so a long-running ``serve`` never grows the
        event log unboundedly.  ``None`` (default) disables rotation.
    keep:
        Rotated files retained beyond the live one (``0`` = rotate by
        truncation, discarding history).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        path: str | os.PathLike | None = None,
        sample_rate: float = 1.0,
        *,
        max_bytes: int | None = None,
        keep: int = DEFAULT_ROTATED_KEEP,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None to disable)")
        if keep < 0:
            raise ValueError("keep must be non-negative")
        self.capacity = capacity
        self.path = os.fspath(path) if path is not None else None
        self.sample_rate = sample_rate
        self.max_bytes = max_bytes
        self.keep = keep
        self.rotations = 0
        self.dropped = 0
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._file: IO[str] | None = None

    # ------------------------------------------------------------------ emit
    def sampled(self, trace_id: str | None) -> bool:
        """Whether events of this trace are recorded (None → always)."""
        if trace_id is None or self.sample_rate >= 1.0:
            return True
        return sample_decision(trace_id, self.sample_rate)

    def emit(self, kind: str, *, trace: str | None = None, **fields: Any) -> bool:
        """Record one event; returns False when its trace is sampled out."""
        if not self.sampled(trace):
            return False
        event: dict[str, Any] = {"kind": kind}
        if trace is not None:
            event["trace"] = trace
        event.update(fields)
        return self._record(event)

    def emit_span(self, span: Any) -> bool:
        """Record one completed :class:`~repro.obs.span.Span`.

        Not sampled here: a span carries its trace's verdict (it was only
        made because ``Span.begin`` found the trace sampled).  Builds the
        event dict in one go (no kwargs round trip through :meth:`emit`) —
        this runs once per span on every instrumented path.
        """
        event: dict[str, Any] = {
            "kind": "span",
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "dur": span.end - span.start,
            "status": span.status,
        }
        if span.attrs:
            event["attrs"] = dict(span.attrs)
        return self._record(event)

    def _record(self, event: dict[str, Any]) -> bool:
        if self.path is None:
            # Ring-only fast path: ``deque.append`` with a maxlen is atomic
            # in CPython, so the always-on configuration takes no lock — a
            # contended acquire between the event-loop thread and executor
            # threads costs a GIL handoff per span otherwise.  The dropped
            # counter's read-modify-write is benignly racy here: it is a
            # health stat, and under concurrent overflow it may undercount.
            ring = self._ring
            if len(ring) == self.capacity:
                self.dropped += 1
            ring.append(event)
            return True
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(event)
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")
            self._file.write(json.dumps(event, ensure_ascii=False) + "\n")
            self._file.flush()
            if self.max_bytes is not None and self._file.tell() >= self.max_bytes:
                self._rotate_locked()
        return True

    def _rotate_locked(self) -> None:
        """Shift ``path → path.1 → … → path.keep`` and start a fresh file.

        Rotation is per-process: when several workers share one inherited
        sink each rotates independently, which at worst rotates a little
        early — the bound still holds.  Failures (e.g. a rotated file
        vanishing underneath us) are swallowed: losing a rotation beats
        killing the instrumented request.
        """
        assert self.path is not None
        if self._file is not None:
            self._file.close()
            self._file = None
        try:
            if self.keep == 0:
                os.remove(self.path)
            else:
                for index in range(self.keep - 1, 0, -1):
                    older = f"{self.path}.{index}"
                    if os.path.exists(older):
                        os.replace(older, f"{self.path}.{index + 1}")
                os.replace(self.path, f"{self.path}.1")
            self.rotations += 1
            # Reopen immediately so the live path always exists — readers
            # (``repro trace``, ``tail -f``) never see it vanish.
            self._file = open(self.path, "a", encoding="utf-8")
        except OSError:
            pass

    # ----------------------------------------------------------------- query
    def events(
        self, *, trace: str | None = None, kind: str | None = None
    ) -> list[dict[str, Any]]:
        """A snapshot of buffered events, optionally filtered."""
        with self._lock:
            snapshot = list(self._ring)
        if trace is not None:
            snapshot = [e for e in snapshot if e.get("trace") == trace]
        if kind is not None:
            snapshot = [e for e in snapshot if e.get("kind") == kind]
        return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # ------------------------------------------------------------- lifecycle
    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


# ------------------------------------------------------------- default log
_default_lock = threading.Lock()
_default_log: EventLog | None = None


def _log_from_env() -> EventLog:
    capacity = int(os.environ.get(ENV_EVENTS_CAPACITY, DEFAULT_CAPACITY))
    rate = float(os.environ.get(ENV_EVENTS_SAMPLE, 1.0))
    path = os.environ.get(ENV_EVENTS_FILE) or None
    max_bytes_raw = os.environ.get(ENV_EVENTS_MAX_BYTES)
    max_bytes = int(max_bytes_raw) if max_bytes_raw else None
    keep = int(os.environ.get(ENV_EVENTS_KEEP, DEFAULT_ROTATED_KEEP))
    return EventLog(
        capacity=capacity,
        path=path,
        sample_rate=rate,
        max_bytes=max_bytes,
        keep=keep,
    )


def get_default_event_log() -> EventLog:
    """The process-wide event log (built from the environment on first use).

    Double-checked locking: this getter runs at least twice per span (the
    sampling verdict, then the emit), so the common path must not take the
    lock — a plain read of the module global is atomic under the GIL.
    """
    global _default_log
    log = _default_log
    if log is None:
        with _default_lock:
            if _default_log is None:
                _default_log = _log_from_env()
            log = _default_log
    return log


def configure_default_event_log(
    *,
    capacity: int | None = None,
    path: str | os.PathLike | None = None,
    sample_rate: float | None = None,
    max_bytes: int | None = None,
    keep: int | None = None,
    export_env: bool = False,
) -> EventLog:
    """Replace the process-default log (tests, CLI ``serve --events-file``).

    ``max_bytes``/``keep`` default from the environment
    (``REPRO_EVENTS_MAX_BYTES`` / ``REPRO_EVENTS_KEEP``) so a supervisor can
    cap the sink without touching serve flags.  With ``export_env`` the file
    path, sample rate and rotation bound are written back into
    ``os.environ``, so subprocess workers spawned later inherit the same
    sink, sampling verdicts and growth cap.
    """
    global _default_log
    if max_bytes is None:
        max_bytes_raw = os.environ.get(ENV_EVENTS_MAX_BYTES)
        max_bytes = int(max_bytes_raw) if max_bytes_raw else None
    if keep is None:
        keep = int(os.environ.get(ENV_EVENTS_KEEP, DEFAULT_ROTATED_KEEP))
    log = EventLog(
        capacity=capacity if capacity is not None else DEFAULT_CAPACITY,
        path=path,
        sample_rate=sample_rate if sample_rate is not None else 1.0,
        max_bytes=max_bytes,
        keep=keep,
    )
    with _default_lock:
        old, _default_log = _default_log, log
    if old is not None:
        old.close()
    if export_env:
        if log.path is not None:
            os.environ[ENV_EVENTS_FILE] = log.path
        os.environ[ENV_EVENTS_SAMPLE] = repr(log.sample_rate)
        if log.max_bytes is not None:
            os.environ[ENV_EVENTS_MAX_BYTES] = str(log.max_bytes)
            os.environ[ENV_EVENTS_KEEP] = str(log.keep)
    return log


def emit_event(kind: str, *, trace: str | None = None, **fields: Any) -> bool:
    """Record one event on the process-default log."""
    return get_default_event_log().emit(kind, trace=trace, **fields)


def read_events(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Load a JSONL event file, skipping torn/garbage lines."""
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line from a live writer
            if isinstance(event, dict):
                events.append(event)
    return events


# -------------------------------------------------------------- waterfall
def trace_ids(events: Iterable[Mapping[str, Any]]) -> list[str]:
    """Distinct trace ids appearing in ``events``, in first-seen order."""
    seen: dict[str, None] = {}
    for event in events:
        trace = event.get("trace")
        if isinstance(trace, str):
            seen.setdefault(trace, None)
    return list(seen)


def render_waterfall(
    events: Iterable[Mapping[str, Any]], trace_id: str
) -> str:
    """Pretty-print the span tree of one trace as an indented waterfall.

    Spans are keyed into a tree by parent id (orphans — e.g. a parent whose
    process was not writing to this log — become extra roots), offsets are
    relative to the earliest span start, and the chain ending at the latest
    finish is marked ``*`` (the critical path).  Cross-process offsets are
    meaningful on platforms where ``time.monotonic`` is system-wide (Linux
    ``CLOCK_MONOTONIC``).
    """
    spans = [
        e
        for e in events
        if e.get("kind") == "span" and e.get("trace") == trace_id
    ]
    if not spans:
        return f"no spans recorded for trace {trace_id}"
    by_id = {e["span"]: e for e in spans if "span" in e}
    children: dict[str | None, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for event in spans:
        parent = event.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(event)
        else:
            roots.append(event)
    for group in children.values():
        group.sort(key=lambda e: e.get("start", 0.0))
    roots.sort(key=lambda e: e.get("start", 0.0))

    t0 = min(e.get("start", 0.0) for e in spans)
    t_end = max(e.get("start", 0.0) + e.get("dur", 0.0) for e in spans)

    # Critical path: follow, from each root, the child chain that ends last.
    critical: set[str] = set()

    def _latest_end(event: dict[str, Any]) -> float:
        own = event.get("start", 0.0) + event.get("dur", 0.0)
        return max(
            [own]
            + [_latest_end(child) for child in children.get(event.get("span"), [])]
        )

    node = max(roots, key=_latest_end)
    while node is not None:
        span_id = node.get("span")
        if span_id is not None:
            critical.add(span_id)
        kids = children.get(span_id, [])
        node = max(kids, key=_latest_end) if kids else None

    lines = [
        f"trace {trace_id} — {len(spans)} spans, "
        f"{(t_end - t0) * 1000:.2f} ms total (* = critical path)",
        f"{'offset':>10}  {'duration':>10}  span",
    ]

    def _render(event: dict[str, Any], depth: int) -> None:
        offset = (event.get("start", 0.0) - t0) * 1000
        duration = event.get("dur", 0.0) * 1000
        mark = "*" if event.get("span") in critical else " "
        attrs = event.get("attrs") or {}
        detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        status = "" if event.get("status", "ok") == "ok" else " [ERROR]"
        lines.append(
            f"{offset:>8.2f}ms  {duration:>8.2f}ms  "
            f"{'  ' * depth}{mark}{event.get('name', '?')}"
            f"{' ' + detail if detail else ''}{status}"
        )
        for child in children.get(event.get("span"), []):
            _render(child, depth + 1)

    for root in roots:
        _render(root, 0)
    return "\n".join(lines)


__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_ROTATED_KEEP",
    "ENV_EVENTS_CAPACITY",
    "ENV_EVENTS_FILE",
    "ENV_EVENTS_KEEP",
    "ENV_EVENTS_MAX_BYTES",
    "ENV_EVENTS_SAMPLE",
    "EventLog",
    "configure_default_event_log",
    "emit_event",
    "get_default_event_log",
    "read_events",
    "render_waterfall",
    "sample_decision",
    "trace_ids",
]
