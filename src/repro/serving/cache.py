"""Persistent completion cache shared across processes.

The in-memory LRU of :class:`~repro.llm.cache.CachedLLM` dies with the
process; re-running an experiment or restarting the service re-bills every
prompt.  :class:`PersistentCache` spills completions to one append-only JSONL
log per directory, ``cache.jsonl``, so a warmed cache makes reruns near-free.
One record is one entry: its text and the token counts the backend billed
for it, ``{"key": prompt_key(prompt), "text": ..., "tokens": [prompt_tokens,
completion_tokens]}``.  The log is:

* **append-only** — a put is one ``O_APPEND`` write of one JSON line; there is
  no rewrite-in-place, so after a crash what is left is a prefix of the log,
  whose torn final line the loader skips;
* **last-wins** — re-putting a prompt appends a new line; on load the latest
  line for a key is the value served;
* **write-then-rename compaction** — :meth:`PersistentCache.compact` writes
  the live state to ``cache.jsonl.tmp`` and renames it over the log, so a
  failed compaction leaves the old log whole.

The class satisfies the ``CacheBackend`` protocol of
:class:`~repro.llm.cache.CachedLLM` (``get``/``put`` of ``(text,
prompt_tokens, completion_tokens)`` entries) and is thread-safe.

Elasticity support: entries are keyed by :func:`prompt_key`, and the cluster
ring places a prompt by that same key (see
:class:`~repro.cluster.hashing.PromptOwners`).  When the ring resizes, the
router reads each shard's :meth:`PersistentCache.items`, copies the entries
the new ring places elsewhere into their owners' shards
(:meth:`PersistentCache.absorb`) and drops them from the source
(:meth:`PersistentCache.drop`, a compaction); a moved entry keeps its
counts.  An older log's records are skipped, counted stale, and gone after
the next compaction: ``{"key", "route"}`` records, from before entries were
placed by their own key, and ``{"key", "text"}`` records without
``tokens``, from before entries kept the backend's counts — such a
directory opens cold.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from ..llm.cache import Entry
from ..obs.events import emit_event
from ..obs.metrics import MetricsRegistry, get_default_registry


def prompt_key(prompt: str) -> str:
    """Stable content key for a prompt (SHA-256 hex digest)."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def entry_record(key: str, entry: Entry) -> dict:
    """The log record (and migration row) of ``entry`` under ``key``."""
    text, prompt_tokens, completion_tokens = entry
    return {"key": key, "text": text, "tokens": [prompt_tokens, completion_tokens]}


def _entry(record: dict) -> Entry | None:
    """The entry of a record, or ``None`` if its text or counts are not valid."""
    text, tokens = record.get("text"), record.get("tokens")
    if not isinstance(text, str) or not isinstance(tokens, list) or len(tokens) != 2:
        return None
    prompt_tokens, completion_tokens = tokens
    # ``type(...) is int``: JSON ``true`` loads as a bool, which is an int.
    if type(prompt_tokens) is not int or type(completion_tokens) is not int:
        return None
    if prompt_tokens < 0 or completion_tokens < 0:
        return None
    return text, prompt_tokens, completion_tokens


def _line(key: str, entry: Entry) -> str:
    return json.dumps(entry_record(key, entry), ensure_ascii=False) + "\n"


class PersistentCache:
    """Disk-backed prompt → entry store (one JSONL log per directory).

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
        self._entries: dict[str, Entry] = {}
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
                    continue
                entry = _entry(record)
                if entry is not None:
                    self._entries[record["key"]] = entry
                    applied += 1
                elif "tokens" not in record and (
                    isinstance(record.get("text"), str) or isinstance(record.get("route"), str)
                ):
                    stale += 1  # an older log's entry without counts, or route
                else:
                    torn += 1
        # Records a compaction would drop: superseded entries, older records.
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

    def _append(self, key: str, entry: Entry) -> None:
        """Write first, remember second.

        An append that raises (a full disk, a vanished directory) leaves
        memory as it was, so a retry appends again instead of being skipped
        as "already durable": what ``get`` serves is on disk.
        """
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(_line(key, entry))
        self._entries[key] = entry
        self._m_puts.inc()
        self._m_bytes.inc(len(entry[0]))

    def _rewrite(self, entries: dict[str, Entry]) -> None:
        """Replace the log with one record per entry (write, then rename)."""
        tmp = self.path / "cache.jsonl.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                for key, entry in entries.items():
                    handle.write(_line(key, entry))
            os.replace(tmp, self.log_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    # ------------------------------------------------------------ cache API
    def get(self, prompt: str) -> Entry | None:
        with self._lock:
            return self._entries.get(prompt_key(prompt))

    def put(self, prompt: str, entry: Entry) -> None:
        key = prompt_key(prompt)
        with self._lock:
            if self._entries.get(key) == entry:
                return  # already durable; skip the duplicate append
            self._append(key, entry)
            self._m_entries.set(len(self._entries))

    # ------------------------------------------------------------ migration
    def items(self) -> list[tuple[str, Entry]]:
        """Every entry as ``(prompt key, entry)``: what a resize places."""
        with self._lock:
            return list(self._entries.items())

    def absorb(self, rows: "list[dict]") -> int:
        """Import migrated rows, each an :func:`entry_record` (memory **and**
        disk).

        The shard-to-shard copy half of a resize; returns entries added.
        A row without a string key, a text and valid counts is skipped.
        Existing identical entries are skipped, so re-running a torn
        migration is safe (last-wins on load covers genuine conflicts).
        """
        added = 0
        with self._lock:
            for row in rows:
                key, entry = row.get("key"), _entry(row)
                if not isinstance(key, str) or entry is None:
                    continue
                if self._entries.get(key) != entry:
                    self._append(key, entry)
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
            kept = {key: entry for key, entry in self._entries.items() if key not in keys}
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
