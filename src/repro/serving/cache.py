"""Persistent completion cache shared across processes.

The in-memory LRU of :class:`~repro.llm.cache.CachedLLM` dies with the
process; re-running an experiment or restarting the service re-bills every
prompt.  :class:`PersistentCache` spills completions to one append-only JSONL
log per directory, ``cache.jsonl``, so a warmed cache makes reruns near-free:

* **append-only** — a put is one ``O_APPEND`` write of one JSON line; there is
  no rewrite-in-place, so after a crash what is left is a prefix of the log,
  whose torn final line the loader skips;
* **last-wins** — re-putting a prompt appends a new line; on load the latest
  line for a key is the value served;
* **write-then-rename compaction** — :meth:`PersistentCache.compact` writes
  the live state to ``cache.jsonl.tmp`` and renames it over the log, so a
  failed compaction leaves the old log whole.

The class satisfies the ``CacheBackend`` protocol of
:class:`~repro.llm.cache.CachedLLM` (``get``/``put``) and is thread-safe.

Elasticity support: the same log carries a **route index** — records
``{"key", "route"}`` beside the entry records ``{"key", "text"}`` —
attributing each prompt key to the spec key that issued it (see
:func:`repro.flow.planner.spec_key` — the same digest the cluster ring
places by).  When the ring resizes, the router asks each shard which spec
keys it holds and uses :meth:`PersistentCache.entries_for_routes` /
:meth:`PersistentCache.absorb` to copy exactly the moved entries
shard-to-shard — no attribution, no migration.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from ..obs.events import emit_event
from ..obs.metrics import MetricsRegistry, get_default_registry


def prompt_key(prompt: str) -> str:
    """Stable content key for a prompt (SHA-256 hex digest)."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _line(record: dict[str, str]) -> str:
    return json.dumps(record, ensure_ascii=False) + "\n"


class PersistentCache:
    """Disk-backed prompt → completion store (one JSONL log per directory).

    Parameters
    ----------
    path:
        Directory holding the log (created if missing).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        metrics: MetricsRegistry | None = None,
    ):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        #: The log every record is appended to; the only file of the cache
        #: (``cache.jsonl.tmp`` exists only while :meth:`compact` runs).
        self.log_path = self.path / "cache.jsonl"
        metrics = metrics or get_default_registry()
        self._m_puts = metrics.counter("pcache.puts")
        self._m_bytes = metrics.counter("pcache.bytes_written")
        # Per-directory gauge: cluster shards each report their own size.
        self._m_entries = metrics.gauge(f"pcache.entries.{self.path.name}")
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        #: prompt key -> spec (route) keys that issued the prompt; the
        #: unit the cluster ring places by, so resizes can move exactly the
        #: entries whose owner changed.  A set because two different specs
        #: can issue one identical sub-prompt — the entry then belongs to
        #: every route and may only be dropped once *all* of them leave.
        self._routes: dict[str, set[str]] = {}
        self._load()
        self._m_entries.set(len(self._entries))

    # -------------------------------------------------------------------- io
    def _apply(self, record: object) -> bool:
        """Fold one log record into memory; ``False`` if it is not a record."""
        if not isinstance(record, dict) or not isinstance(record.get("key"), str):
            return False
        key, text, route = record["key"], record.get("text"), record.get("route")
        if isinstance(text, str):
            self._entries[key] = text
        elif isinstance(route, str):
            self._routes.setdefault(key, set()).add(route)
        else:
            return False
        return True

    def _load(self) -> None:
        torn = 0
        applied = 0
        try:
            # A UTF-8 sequence cut by a crash decodes to lone surrogates, so
            # its line fails as JSON below instead of failing the open.
            handle = open(self.log_path, encoding="utf-8", errors="surrogateescape")
        except FileNotFoundError:
            return
        with handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:  # torn final line of a crashed writer
                    record = None
                if self._apply(record):
                    applied += 1
                else:
                    torn += 1
        # Records a compaction would drop: superseded entries, repeated routes.
        stale = applied - len(self._entries) - sum(map(len, self._routes.values()))
        if torn or stale:
            # Compaction-worthy anomalies: torn lines mean a writer crashed
            # mid-append, stale lines mean superseded history is bloating the
            # log.  Surface both in the event log so operators notice.
            emit_event(
                "pcache.anomaly",
                path=str(self.path),
                torn_lines=torn,
                stale_lines=stale,
                live_entries=len(self._entries),
            )

    def _append(self, record: dict[str, str]) -> None:
        """Write first, remember second; ``record`` is an entry or a route.

        An append that raises (a full disk, a vanished directory) leaves
        memory as it was, so a retry appends again instead of being skipped
        as "already durable": what ``get`` serves is on disk.
        """
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(_line(record))
        self._apply(record)
        if "text" in record:
            self._m_puts.inc()
            self._m_bytes.inc(len(record["text"]))

    def _rewrite(self, entries: dict[str, str], routes: dict[str, set[str]]) -> None:
        """Replace the log with one record per entry and route (write, rename)."""
        tmp = self.path / "cache.jsonl.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                for key, text in entries.items():
                    handle.write(_line({"key": key, "text": text}))
                for key, key_routes in routes.items():
                    for route in sorted(key_routes):
                        handle.write(_line({"key": key, "route": route}))
            os.replace(tmp, self.log_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    # ------------------------------------------------------------ cache API
    def get(self, prompt: str) -> str | None:
        with self._lock:
            return self._entries.get(prompt_key(prompt))

    def put(self, prompt: str, text: str) -> None:
        key = prompt_key(prompt)
        with self._lock:
            if self._entries.get(key) == text:
                return  # already durable; skip the duplicate append
            self._append({"key": key, "text": text})
            self._m_entries.set(len(self._entries))

    # ------------------------------------------------------------ routing
    def note_route(self, prompt: str, route: str) -> None:
        """Attribute ``prompt`` to the spec key that issued it (idempotent).

        Called by the serving engine for every prompt a spec submits, so
        the route index stays complete even for prompts that were cache
        hits (their entries may still need to move on a resize).
        """
        key = prompt_key(prompt)
        with self._lock:
            if route not in self._routes.get(key, ()):
                self._append({"key": key, "route": route})

    def route_keys(self) -> set[str]:
        """Every distinct spec key this shard has cached prompts for."""
        with self._lock:
            return set().union(*self._routes.values()) if self._routes else set()

    def entries_for_routes(self, routes: "set[str]") -> list[dict]:
        """The migratable rows for ``routes``: ``{"key", "text", "route"}``.

        Prompts attributed to a moved spec key but with no stored entry
        (the completion errored, or the writer crashed first) are skipped —
        the new owner recomputes them on first miss.
        """
        rows: list[dict] = []
        with self._lock:
            for key, key_routes in self._routes.items():
                text = self._entries.get(key)
                if text is None:
                    continue
                # One row per moved attribution: a shared prompt travels
                # with each of its moving routes (absorb dedups the entry).
                for route in sorted(key_routes & routes):
                    rows.append({"key": key, "text": text, "route": route})
        return rows

    def absorb(self, rows: "list[dict]") -> int:
        """Import migrated rows (memory **and** disk); returns entries added.

        The shard-to-shard copy half of a resize: rows come from another
        shard's :meth:`entries_for_routes`.  Existing identical entries are
        skipped, so re-running a torn migration is safe (last-wins on load
        covers genuine conflicts).
        """
        added = 0
        with self._lock:
            for row in rows:
                key, text, route = row.get("key"), row.get("text"), row.get("route")
                if not isinstance(key, str) or not isinstance(text, str):
                    continue
                if self._entries.get(key) != text:
                    self._append({"key": key, "text": text})
                    added += 1
                if isinstance(route, str) and route not in self._routes.get(key, ()):
                    self._append({"key": key, "route": route})
            self._m_entries.set(len(self._entries))
        return added

    def remove_routes(self, routes: "set[str]") -> int:
        """Drop every entry attributed *only* to ``routes``; compact the log.

        The source-side half of a migration: once the new owner has
        absorbed the moved rows, the old shard stops holding them so shard
        contents stay disjoint at the spec level.  An entry shared with a
        route that stays keeps living here (only the moved attribution is
        forgotten) — dropping it would cost the staying spec a cache miss.
        The compacted log is written before memory changes, so a failed
        rewrite leaves both as they were.  Returns entries dropped.
        """
        with self._lock:
            if not any(key_routes & routes for key_routes in self._routes.values()):
                return 0
            kept: dict[str, set[str]] = {}
            for key, key_routes in self._routes.items():
                remaining = key_routes - routes
                if remaining:
                    kept[key] = remaining
            entries = {
                key: text
                for key, text in self._entries.items()
                if key in kept or key not in self._routes
            }
            self._rewrite(entries, kept)
            dropped = len(self._entries) - len(entries)
            self._entries, self._routes = entries, kept
            self._m_entries.set(len(entries))
        return dropped

    # ---------------------------------------------------------- maintenance
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, prompt: str) -> bool:
        return self.get(prompt) is not None

    def clear(self) -> None:
        """Delete the log and forget every entry."""
        with self._lock:
            self.log_path.unlink(missing_ok=True)
            self._entries.clear()
            self._routes.clear()

    def compact(self) -> None:
        """Rewrite the log with one line per live entry and route.

        Write-then-rename: the new log is written to ``cache.jsonl.tmp`` and
        renamed over the old one, so a failure leaves the old log whole.
        """
        with self._lock:
            self._rewrite(self._entries, self._routes)
