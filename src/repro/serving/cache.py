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

Elasticity support: entries are keyed by :func:`prompt_key`, and the cluster
ring places a prompt by that same key (see
:class:`~repro.cluster.hashing.PromptOwners`).  When the ring resizes, the
router reads each shard's :meth:`PersistentCache.items`, copies the entries
the new ring places elsewhere into their owners' shards
(:meth:`PersistentCache.absorb`) and drops them from the source
(:meth:`PersistentCache.drop`, a compaction).  A log written before entries
were placed by their own key may still hold ``{"key", "route"}`` records;
they are skipped, counted stale, and gone after the next compaction.
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
        self._load()
        self._m_entries.set(len(self._entries))

    # -------------------------------------------------------------------- io
    def _load(self) -> None:
        torn = 0
        stale = 0
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
                if not isinstance(record, dict) or not isinstance(record.get("key"), str):
                    torn += 1
                elif isinstance(record.get("text"), str):
                    self._entries[record["key"]] = record["text"]
                    applied += 1
                elif isinstance(record.get("route"), str):
                    stale += 1  # an older log's route record
                else:
                    torn += 1
        # Records a compaction would drop: superseded entries, old routes.
        stale += applied - len(self._entries)
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

    def _append(self, key: str, text: str) -> None:
        """Write first, remember second.

        An append that raises (a full disk, a vanished directory) leaves
        memory as it was, so a retry appends again instead of being skipped
        as "already durable": what ``get`` serves is on disk.
        """
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(_line({"key": key, "text": text}))
        self._entries[key] = text
        self._m_puts.inc()
        self._m_bytes.inc(len(text))

    def _rewrite(self, entries: dict[str, str]) -> None:
        """Replace the log with one record per entry (write, then rename)."""
        tmp = self.path / "cache.jsonl.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                for key, text in entries.items():
                    handle.write(_line({"key": key, "text": text}))
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
            self._append(key, text)
            self._m_entries.set(len(self._entries))

    # ------------------------------------------------------------ migration
    def items(self) -> list[tuple[str, str]]:
        """Every entry as ``(prompt key, text)``: what a resize places."""
        with self._lock:
            return list(self._entries.items())

    def absorb(self, rows: "list[dict]") -> int:
        """Import migrated ``{"key", "text"}`` rows (memory **and** disk).

        The shard-to-shard copy half of a resize; returns entries added.
        Existing identical entries are skipped, so re-running a torn
        migration is safe (last-wins on load covers genuine conflicts).
        """
        added = 0
        with self._lock:
            for row in rows:
                key, text = row.get("key"), row.get("text")
                if not isinstance(key, str) or not isinstance(text, str):
                    continue
                if self._entries.get(key) != text:
                    self._append(key, text)
                    added += 1
            self._m_entries.set(len(self._entries))
        return added

    def drop(self, keys: "set[str]") -> int:
        """Forget the entries under ``keys``; compact the log.

        The source-side half of a migration: once the new owners have
        absorbed the moved entries, the old shard stops holding them, so
        shards stay disjoint.  The compacted log is written before memory
        changes, so a failed rewrite leaves both as they were.  Returns
        entries dropped.
        """
        with self._lock:
            kept = {key: text for key, text in self._entries.items() if key not in keys}
            dropped = len(self._entries) - len(kept)
            if dropped:
                self._rewrite(kept)
                self._entries = kept
                self._m_entries.set(len(kept))
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

    def compact(self) -> None:
        """Rewrite the log with one line per live entry.

        Write-then-rename: the new log is written to ``cache.jsonl.tmp`` and
        renamed over the old one, so a failure leaves the old log whole.
        """
        with self._lock:
            self._rewrite(self._entries)
