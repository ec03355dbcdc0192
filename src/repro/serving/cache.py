"""Persistent completion cache shared across processes.

The in-memory LRU of :class:`~repro.llm.cache.CachedLLM` dies with the
process; re-running an experiment or restarting the service re-bills every
prompt.  :class:`PersistentCache` spills completions to append-only JSONL
shard files keyed by prompt hash, so a warmed cache makes reruns near-free:

* **append-only** — a put is one ``O_APPEND`` write of one JSON line; there is
  no rewrite-in-place, so a crash can at worst truncate the final line (which
  the loader skips);
* **sharded** — keys are spread over ``shards`` files by hash prefix, keeping
  individual files small and letting several processes warm disjoint shards
  with less write contention;
* **last-wins** — re-putting a prompt appends a new line; on load the latest
  line for a key is the value served.

The class satisfies the ``CacheBackend`` protocol of
:class:`~repro.llm.cache.CachedLLM` (``get``/``put``) and is thread-safe.

Elasticity support: alongside the entry shards the cache keeps a **route
index** (``routes.jsonl``) attributing each prompt key to the spec key that
issued it (see :func:`repro.flow.planner.spec_key` — the same digest the
cluster ring places by).  When the ring resizes, the router computes the
consistent-hash-minimal set of moved spec keys and uses
:meth:`PersistentCache.entries_for_routes` / :meth:`PersistentCache.absorb`
to copy exactly those entries shard-to-shard — no attribution, no migration.
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


class PersistentCache:
    """Disk-backed prompt → completion store (JSONL shard files).

    Parameters
    ----------
    path:
        Directory holding the shard files (created if missing).
    shards:
        Number of shard files keys are spread over.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        shards: int = 16,
        metrics: MetricsRegistry | None = None,
    ):
        if shards < 1:
            raise ValueError("shards must be positive")
        self.path = Path(path)
        self.shards = shards
        self.path.mkdir(parents=True, exist_ok=True)
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
    def _shard_file(self, key: str) -> Path:
        shard = int(key[:8], 16) % self.shards
        return self.path / f"shard-{shard:02d}.jsonl"

    @property
    def _routes_file(self) -> Path:
        return self.path / "routes.jsonl"

    def _load(self) -> None:
        torn = 0
        stale = 0
        for shard_path in sorted(self.path.glob("shard-*.jsonl")):
            with open(shard_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        torn += 1
                        continue  # torn final line from a crashed writer
                    key, text = entry.get("key"), entry.get("text")
                    if isinstance(key, str) and isinstance(text, str):
                        if key in self._entries:
                            stale += 1  # superseded line; compact() would drop it
                        self._entries[key] = text
        if self._routes_file.exists():
            with open(self._routes_file, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        torn += 1
                        continue
                    key, route = entry.get("key"), entry.get("route")
                    if isinstance(key, str) and isinstance(route, str):
                        self._routes.setdefault(key, set()).add(route)
        if torn or stale:
            # Compaction-worthy anomalies: torn lines mean a writer crashed
            # mid-append, stale lines mean superseded history is bloating the
            # shards.  Surface both in the event log so operators notice.
            emit_event(
                "pcache.anomaly",
                path=str(self.path),
                torn_lines=torn,
                stale_lines=stale,
                live_entries=len(self._entries),
            )

    def _append(self, key: str, text: str) -> None:
        """Write first, remember second (``_append_route`` likewise).

        An append that raises (a full disk, a vanished directory) leaves
        memory as it was, so a retry appends again instead of being skipped
        as "already durable": what ``get`` serves is on disk.
        """
        line = json.dumps({"key": key, "text": text}, ensure_ascii=False)
        with open(self._shard_file(key), "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self._entries[key] = text
        self._m_puts.inc()
        self._m_bytes.inc(len(text))

    def _append_route(self, key: str, route: str) -> None:
        line = json.dumps({"key": key, "route": route}, ensure_ascii=False)
        with open(self._routes_file, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self._routes.setdefault(key, set()).add(route)

    # ------------------------------------------------------------ cache API
    def get(self, prompt: str) -> str | None:
        with self._lock:
            return self._entries.get(prompt_key(prompt))

    def put(self, prompt: str, text: str) -> None:
        key = prompt_key(prompt)
        with self._lock:
            if self._entries.get(key) == text:
                return  # already durable; skip the duplicate append
            self._append(key, text)
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
                self._append_route(key, route)

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
                    self._append(key, text)
                    added += 1
                if isinstance(route, str) and route not in self._routes.get(key, ()):
                    self._append_route(key, route)
            self._m_entries.set(len(self._entries))
        return added

    def remove_routes(self, routes: "set[str]") -> int:
        """Drop every entry attributed *only* to ``routes``; compact after.

        The source-side half of a migration: once the new owner has
        absorbed the moved rows, the old shard stops holding them so shard
        contents stay disjoint at the spec level.  An entry shared with a
        route that stays keeps living here (only the moved attribution is
        forgotten) — dropping it would cost the staying spec a cache miss.
        Returns entries dropped.
        """
        with self._lock:
            touched = False
            dropped = 0
            for key in list(self._routes):
                remaining = self._routes[key] - routes
                if remaining == self._routes[key]:
                    continue
                touched = True
                if remaining:
                    self._routes[key] = remaining
                else:
                    del self._routes[key]
                    if self._entries.pop(key, None) is not None:
                        dropped += 1
            self._m_entries.set(len(self._entries))
        if touched:
            self.compact()
        return dropped

    # ---------------------------------------------------------- maintenance
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, prompt: str) -> bool:
        return self.get(prompt) is not None

    def clear(self) -> None:
        """Delete all shard files and forget every entry."""
        with self._lock:
            self._entries.clear()
            self._routes.clear()
            for shard_path in self.path.glob("shard-*.jsonl"):
                shard_path.unlink()
            if self._routes_file.exists():
                self._routes_file.unlink()

    def compact(self) -> None:
        """Rewrite shards with one line per live key (drops superseded lines)."""
        with self._lock:
            by_shard: dict[Path, list[tuple[str, str]]] = {}
            for key, text in self._entries.items():
                by_shard.setdefault(self._shard_file(key), []).append((key, text))
            for shard_path in self.path.glob("shard-*.jsonl"):
                shard_path.unlink()
            for shard_path, entries in by_shard.items():
                with open(shard_path, "w", encoding="utf-8") as handle:
                    for key, text in entries:
                        handle.write(
                            json.dumps({"key": key, "text": text}, ensure_ascii=False)
                            + "\n"
                        )
            if self._routes:
                with open(self._routes_file, "w", encoding="utf-8") as handle:
                    for key, key_routes in self._routes.items():
                        for route in sorted(key_routes):
                            handle.write(
                                json.dumps(
                                    {"key": key, "route": route}, ensure_ascii=False
                                )
                                + "\n"
                            )
            elif self._routes_file.exists():
                self._routes_file.unlink()
