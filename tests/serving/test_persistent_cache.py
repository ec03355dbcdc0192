"""Unit tests for the disk-backed completion cache."""

import errno
import json
from pathlib import Path

import pytest

from repro.serving import PersistentCache, prompt_key


def test_roundtrip_and_contains(tmp_path):
    cache = PersistentCache(tmp_path / "c")
    assert cache.get("p") is None
    cache.put("p", "completion")
    assert cache.get("p") == "completion"
    assert "p" in cache and "q" not in cache
    assert len(cache) == 1


def test_entries_survive_reopening(tmp_path):
    first = PersistentCache(tmp_path / "c")
    first.put("prompt one", "a")
    first.put("prompt two", "b")
    reopened = PersistentCache(tmp_path / "c")
    assert reopened.get("prompt one") == "a"
    assert reopened.get("prompt two") == "b"
    assert len(reopened) == 2


def test_last_write_wins_across_processes(tmp_path):
    cache = PersistentCache(tmp_path / "c")
    cache.put("p", "old")
    cache.put("p", "new")
    assert cache.get("p") == "new"
    assert PersistentCache(tmp_path / "c").get("p") == "new"


def test_identical_put_is_not_reappended(tmp_path):
    cache = PersistentCache(tmp_path / "c", shards=1)
    cache.put("p", "same")
    cache.put("p", "same")
    shard = tmp_path / "c" / "shard-00.jsonl"
    assert len(shard.read_text().strip().splitlines()) == 1


def test_keys_spread_over_shards(tmp_path):
    cache = PersistentCache(tmp_path / "c", shards=4)
    for i in range(40):
        cache.put(f"prompt {i}", "x")
    shards = list((tmp_path / "c").glob("shard-*.jsonl"))
    assert len(shards) > 1
    assert len(PersistentCache(tmp_path / "c", shards=4)) == 40


def test_torn_final_line_is_skipped(tmp_path):
    cache = PersistentCache(tmp_path / "c", shards=1)
    cache.put("p", "ok")
    shard = tmp_path / "c" / "shard-00.jsonl"
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"key": "abc", "te')  # simulated crash mid-write
    reopened = PersistentCache(tmp_path / "c", shards=1)
    assert reopened.get("p") == "ok"
    assert len(reopened) == 1


def test_clear_deletes_shards(tmp_path):
    cache = PersistentCache(tmp_path / "c")
    cache.put("p", "x")
    cache.clear()
    assert len(cache) == 0
    assert not list((tmp_path / "c").glob("shard-*.jsonl"))
    assert PersistentCache(tmp_path / "c").get("p") is None


def test_compact_rewrites_one_line_per_key(tmp_path):
    cache = PersistentCache(tmp_path / "c", shards=1)
    for value in ("v1", "v2", "v3"):
        cache.put("p", value)
    shard = tmp_path / "c" / "shard-00.jsonl"
    assert len(shard.read_text().strip().splitlines()) == 3
    cache.compact()
    lines = shard.read_text().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"key": prompt_key("p"), "text": "v3"}


def test_rejects_nonpositive_shards(tmp_path):
    with pytest.raises(ValueError):
        PersistentCache(tmp_path / "c", shards=0)


# ------------------------------------------------------- cluster shard handoff
def test_concurrent_writers_on_disjoint_shard_dirs(tmp_path):
    """Cluster regime: N workers each append to their own shard directory."""
    import threading

    def warm(worker_index: int) -> None:
        shard = PersistentCache(tmp_path / f"worker-{worker_index:02d}")
        for i in range(40):
            shard.put(f"worker {worker_index} prompt {i}", f"answer {i}")

    threads = [threading.Thread(target=warm, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for worker_index in range(4):
        reopened = PersistentCache(tmp_path / f"worker-{worker_index:02d}")
        assert len(reopened) == 40
        assert reopened.get(f"worker {worker_index} prompt 7") == "answer 7"
        # Handoff stays local: no worker sees another worker's entries.
        assert reopened.get(f"worker {(worker_index + 1) % 4} prompt 7") is None


def test_concurrent_writers_through_one_cache_instance(tmp_path):
    """Thread-safety of one shard under parallel appends (engine threads)."""
    import threading

    cache = PersistentCache(tmp_path / "c", shards=4)

    def write(prefix: str) -> None:
        for i in range(50):
            cache.put(f"{prefix} prompt {i}", f"{prefix} answer {i}")

    threads = [threading.Thread(target=write, args=(f"t{t}",)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(cache) == 400
    reopened = PersistentCache(tmp_path / "c", shards=4)
    assert len(reopened) == 400
    assert reopened.get("t3 prompt 17") == "t3 answer 17"


def test_reopen_after_crash_with_torn_line_mid_file(tmp_path):
    """A torn line anywhere in a shard is skipped; later entries survive.

    An interrupted writer can leave a truncated record that other processes
    append after (the cluster handoff case: a worker dies mid-put and a
    fresh worker re-opens + extends the same shard directory).
    """
    cache = PersistentCache(tmp_path / "c", shards=1)
    cache.put("before", "kept")
    shard = tmp_path / "c" / "shard-00.jsonl"
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"key": "deadbeef", "text": "tru\n')  # crash mid-record
    survivor = PersistentCache(tmp_path / "c", shards=1)
    survivor.put("after", "also kept")
    reopened = PersistentCache(tmp_path / "c", shards=1)
    assert reopened.get("before") == "kept"
    assert reopened.get("after") == "also kept"
    assert len(reopened) == 2


ROW = {"key": prompt_key("p"), "text": "t", "route": "spec-1"}


@pytest.mark.parametrize(
    "write, failing_file, expected",
    [
        (lambda cache: cache.put("p", "t"), "shard-", ("t", set())),
        (lambda cache: cache.note_route("p", "spec-1"), "routes", (None, {"spec-1"})),
        (lambda cache: cache.absorb([ROW]), "shard-", ("t", {"spec-1"})),
        (lambda cache: cache.absorb([ROW]), "routes", ("t", {"spec-1"})),
    ],
    ids=["put", "note_route", "absorb-entry", "absorb-route"],
)
def test_a_failed_append_is_retried_not_forgotten(
    tmp_path, monkeypatch, write, failing_file, expected
):
    """Write first, remember second: what memory holds is on disk.

    At the parent the entry (or route) was remembered before its append, so
    after one failed append the retry was skipped as "already durable" and a
    reopened cache never had it.
    """
    failed = []

    def full_disk_once(file, mode="r", *args, **kwargs):
        if "a" in mode and Path(file).name.startswith(failing_file) and not failed:
            failed.append(file)
            raise OSError(errno.ENOSPC, "No space left on device")
        return open(file, mode, *args, **kwargs)

    def state(cache):
        return cache.get("p"), cache.route_keys()

    cache = PersistentCache(tmp_path / "c", shards=1)
    monkeypatch.setattr("repro.serving.cache.open", full_disk_once, raising=False)
    with pytest.raises(OSError):
        write(cache)
    assert failed
    assert state(cache) == state(PersistentCache(tmp_path / "c", shards=1))
    write(cache)  # the retry lands ...
    assert state(cache) == expected
    assert state(PersistentCache(tmp_path / "c", shards=1)) == expected  # ... and survives
