"""Persistent completion cache shared across processes.

The in-memory LRU of :class:`~repro.llm.cache.CachedLLM` dies with the
process; re-running an experiment or restarting the service re-bills every
prompt.  :class:`PersistentCache` spills completions to one append-only JSONL
log per directory, ``cache.jsonl``, so a warmed cache makes reruns near-free.
It is keyed by what the cache hands it: the 32-byte
:func:`~repro.llm.cache.prompt_key` of (model identity, prompt), made once
per prompt by :class:`~repro.llm.cache.CachedLLM`; the store never sees, or
hashes, a prompt.  One record is one entry: its key in hex, its text and the
token counts the backend billed for it, ``{"digest": key.hex(), "text": ...,
"tokens": [prompt_tokens, completion_tokens]}``.  The log is:

* **append-only** — a put is one ``O_APPEND`` write of one JSON line; there is
  no rewrite-in-place, so after a crash what is left is a prefix of the log,
  whose torn final line the loader skips;
* **last-wins** — re-putting a key appends a new line; on load the latest
  line for a key is the value served;
* **write-then-rename compaction** — :meth:`PersistentCache.compact` writes
  the live state to ``cache.jsonl.tmp`` and renames it over the log, so a
  failed compaction leaves the old log whole.

The class satisfies the ``CacheBackend`` protocol of
:class:`~repro.llm.cache.CachedLLM` (``get(key)``/``put(key, entry)`` of
``(text, prompt_tokens, completion_tokens)`` entries) and is thread-safe.

Elasticity support: the cluster ring places a prompt by that same key (see
:class:`~repro.cluster.hashing.PromptOwners`).  When the ring resizes, the
router reads each shard's :meth:`PersistentCache.items`, copies the entries
the new ring places elsewhere into their owners' shards
(:meth:`PersistentCache.absorb`) and drops them from the source
(:meth:`PersistentCache.drop`, a compaction); a moved entry keeps its
counts.  An older log's records — ``{"key", ...}`` records, keyed by the
prompt alone (before that, without ``tokens``, or a ``route``) — are skipped,
counted stale, and gone after the next compaction: such a directory opens
cold.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from ..llm.cache import KEY_BYTES, Entry
from ..obs.events import emit_event


def entry_record(key: bytes, entry: Entry) -> dict:
    """The log record (and migration row) of ``entry`` under ``key``."""
    text, prompt_tokens, completion_tokens = entry
    return {"digest": key.hex(), "text": text, "tokens": [prompt_tokens, completion_tokens]}


def _parse(record: object) -> tuple[bytes, Entry] | None:
    """The key and entry of a record, or ``None`` if any part is not valid."""
    if not isinstance(record, dict):
        return None
    digest, text, tokens = record.get("digest"), record.get("text"), record.get("tokens")
    if not isinstance(digest, str) or not isinstance(text, str):
        return None
    if not isinstance(tokens, list) or len(tokens) != 2:
        return None
    prompt_tokens, completion_tokens = tokens
    # ``type(...) is int``: JSON ``true`` loads as a bool, which is an int.
    if type(prompt_tokens) is not int or type(completion_tokens) is not int:
        return None
    if prompt_tokens < 0 or completion_tokens < 0:
        return None
    try:
        key = bytes.fromhex(digest)
    except ValueError:
        return None
    if len(key) != KEY_BYTES:
        return None
    return key, (text, prompt_tokens, completion_tokens)


def _line(key: bytes, entry: Entry) -> str:
    return json.dumps(entry_record(key, entry), ensure_ascii=False) + "\n"


class PersistentCache:
    """Disk-backed key → entry store (one JSONL log per directory).

    Parameters
    ----------
    path:
        Directory holding the log (created if missing).
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        #: The log every record is appended to; the only file of the cache
        #: (``cache.jsonl.tmp`` exists only while :meth:`compact` runs).
        self.log_path = self.path / "cache.jsonl"
        self._lock = threading.Lock()
        self._entries: dict[bytes, Entry] = {}
        self._load()

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
                parsed = _parse(record)
                if parsed is not None:
                    self._entries[parsed[0]] = parsed[1]
                    applied += 1
                elif isinstance(record, dict) and isinstance(record.get("key"), str):
                    stale += 1  # an older log's record, keyed by the prompt alone
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

    def _append(self, key: bytes, entry: Entry) -> None:
        """Write first, remember second.

        An append that raises (a full disk, a vanished directory) leaves
        memory as it was, so a retry appends again instead of being skipped
        as "already durable": what ``get`` serves is on disk.
        """
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(_line(key, entry))
        self._entries[key] = entry

    def _rewrite(self, entries: dict[bytes, Entry]) -> None:
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
    def get(self, key: bytes) -> Entry | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: bytes, entry: Entry) -> None:
        with self._lock:
            if self._entries.get(key) == entry:
                return  # already durable; skip the duplicate append
            self._append(key, entry)

    # ------------------------------------------------------------ migration
    def items(self) -> list[tuple[bytes, Entry]]:
        """Every entry as ``(key, entry)``: what a resize places."""
        with self._lock:
            return list(self._entries.items())

    def absorb(self, rows: "list[dict]") -> int:
        """Import migrated rows, each an :func:`entry_record` (memory **and**
        disk).

        The shard-to-shard copy half of a resize; returns entries added.
        A row without a valid digest, a text and valid counts is skipped.
        Existing identical entries are skipped, so re-running a torn
        migration is safe (last-wins on load covers genuine conflicts).
        """
        added = 0
        with self._lock:
            for row in rows:
                parsed = _parse(row)
                if parsed is None:
                    continue
                key, entry = parsed
                if self._entries.get(key) != entry:
                    self._append(key, entry)
                    added += 1
        return added

    def drop(self, keys: "set[bytes]") -> int:
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
        return dropped

    # ---------------------------------------------------------- maintenance
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

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
