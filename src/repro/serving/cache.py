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

* **append-only** — a put stages its entry, and :meth:`PersistentCache.flush`
  lands every staged entry with one ``O_APPEND`` write of their JSON lines
  (a serving batch's misses: one append a batch, made after the batch was
  delivered); there is no rewrite-in-place, so after a crash what is left is
  a prefix of the log, whose torn final line the loader skips;
* **last-wins** — re-putting a key appends a new line; on load the latest
  line for a key is the value served;
* **write-then-rename compaction** — :meth:`PersistentCache.compact` writes
  the live state to ``cache.jsonl.tmp`` and renames it over the log, so a
  failed compaction leaves the old log whole.

The class satisfies the ``CacheBackend`` protocol of
:class:`~repro.llm.cache.CachedLLM` (``get(key)``/``put(key, entry)`` of
``(text, prompt_tokens, completion_tokens)`` entries) and is thread-safe.
What it serves is on disk: ``get`` of a staged entry flushes first, and a
failed append leaves its rows staged for the next flush.  Whatever is still
staged when the process exits is flushed then.  ``items``,
``len``, ``drop`` and ``compact`` see staged entries; ``clear`` forgets them.

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

import atexit
import json
import os
import threading
import weakref
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


#: Every open cache: what is staged when the process exits is written then,
#: so an answer a process gave is on disk even if no one closed its engine.
_OPEN: "weakref.WeakSet[PersistentCache]" = weakref.WeakSet()


@atexit.register
def _flush_at_exit() -> None:
    for cache in list(_OPEN):
        try:
            cache.flush()
        except OSError:
            pass  # nothing is left to retry it: its prompts miss next time


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
        #: Guards ``_entries`` and ``_staged``; never held across an append.
        self._lock = threading.Lock()
        #: One append at a time, in staging order; taken before ``_lock``.
        self._write_lock = threading.Lock()
        #: What is on disk: the state ``get`` serves.
        self._entries: dict[bytes, Entry] = {}
        #: Put since the last flush, to be appended by the next one.
        self._staged: dict[bytes, Entry] = {}
        self._load()
        _OPEN.add(self)

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

    def flush(self) -> None:
        """Append every staged entry, in one write: write first, remember second.

        An append that raises (a full disk, a vanished directory) leaves the
        rows staged and memory as it was, so the next flush appends them
        again instead of skipping them as "already durable": what ``get``
        serves is on disk.  The lines are made and written outside the state
        lock, so a lookup never waits for the disk.
        """
        with self._write_lock:
            with self._lock:
                if not self._staged:
                    return
                rows = dict(self._staged)
            text = "".join([_line(key, entry) for key, entry in rows.items()])
            with open(self.log_path, "a", encoding="utf-8") as handle:
                handle.write(text)
            with self._lock:
                for key, entry in rows.items():
                    self._entries[key] = entry
                    if self._staged.get(key) == entry:  # not put again meanwhile
                        del self._staged[key]

    def _live(self) -> dict[bytes, Entry]:
        """What is on disk with what is staged over it; needs ``_lock``."""
        return {**self._entries, **self._staged}

    # ------------------------------------------------------------ cache API
    def get(self, key: bytes) -> Entry | None:
        with self._lock:
            if key not in self._staged:
                return self._entries.get(key)
        self.flush()  # staged: served once it is on disk
        with self._lock:
            return self._entries.get(key)

    def put(self, key: bytes, entry: Entry) -> None:
        """Stage ``entry`` under ``key``; the next :meth:`flush` appends it."""
        with self._lock:
            if (self._staged.get(key) or self._entries.get(key)) != entry:
                self._staged[key] = entry  # an identical one is durable or staged

    # ------------------------------------------------------------ migration
    def items(self) -> list[tuple[bytes, Entry]]:
        """Every entry as ``(key, entry)``, staged ones included: what a
        resize places."""
        with self._lock:
            return list(self._live().items())

    def absorb(self, rows: "list[dict]") -> int:
        """Import migrated rows, each an :func:`entry_record` (memory **and**
        disk, in one append).

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
                if (self._staged.get(key) or self._entries.get(key)) != entry:
                    self._staged[key] = entry
                    added += 1
        self.flush()
        return added

    def drop(self, keys: "set[bytes]") -> int:
        """Forget the entries under ``keys``; compact the log.

        The source-side half of a migration: once the new owners have
        absorbed the moved entries, the old shard stops holding them, so
        shards stay disjoint.  The compacted log — staged entries written
        with it — is written before memory changes, so a failed rewrite
        leaves both as they were.  Returns entries dropped.
        """
        with self._write_lock, self._lock:
            live = self._live()
            kept = {key: entry for key, entry in live.items() if key not in keys}
            dropped = len(live) - len(kept)
            if dropped:
                self._rewrite(kept)
                self._entries, self._staged = kept, {}
        return dropped

    # ---------------------------------------------------------- maintenance
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries) + sum(1 for key in self._staged if key not in self._entries)

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def clear(self) -> None:
        """Delete the log and forget every entry, staged ones too."""
        with self._write_lock, self._lock:
            self.log_path.unlink(missing_ok=True)
            self._entries.clear()
            self._staged.clear()

    def compact(self) -> None:
        """Rewrite the log with one line per live entry, staged ones included.

        Write-then-rename: the new log is written to ``cache.jsonl.tmp`` and
        renamed over the old one, so a failure leaves the old log whole.
        """
        with self._write_lock, self._lock:
            live = self._live()
            self._rewrite(live)
            self._entries, self._staged = live, {}
