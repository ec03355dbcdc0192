"""Unit tests for the disk-backed completion cache."""

import errno
import hashlib
import json

import pytest

from repro.llm import prompt_key
from repro.obs import configure_default_event_log
from repro.serving import PersistentCache
from repro.serving.cache import entry_record


def entry(text: str) -> tuple[str, int, int]:
    """An entry of ``text`` with counts no tokenizer gives: the store keeps
    the counts it is handed."""
    return text, len(text), 7


def key(prompt: str) -> bytes:
    """The cache key of ``prompt`` asked of a model named ``echo``."""
    return prompt_key("echo", prompt)


def older_key(prompt: str) -> str:
    """The ``key`` an older log's record carries: the prompt's hash alone."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def test_roundtrip_and_contains(tmp_path):
    cache = PersistentCache(tmp_path / "c")
    assert cache.get(key("p")) is None
    cache.put(key("p"), entry("completion"))
    assert cache.get(key("p")) == entry("completion")
    assert key("p") in cache and key("q") not in cache
    assert len(cache) == 1


def test_entries_survive_reopening(tmp_path):
    first = PersistentCache(tmp_path / "c")
    first.put(key("prompt one"), entry("a"))
    first.put(key("prompt two"), entry("b"))
    reopened = PersistentCache(tmp_path / "c")
    assert reopened.get(key("prompt one")) == entry("a")
    assert reopened.get(key("prompt two")) == entry("b")
    assert len(reopened) == 2


def test_last_write_wins_across_processes(tmp_path):
    cache = PersistentCache(tmp_path / "c")
    cache.put(key("p"), entry("old"))
    cache.put(key("p"), entry("new"))
    assert cache.get(key("p")) == entry("new")
    assert PersistentCache(tmp_path / "c").get(key("p")) == entry("new")


def test_identical_put_is_not_reappended(tmp_path):
    cache = PersistentCache(tmp_path / "c")
    cache.put(key("p"), entry("same"))
    cache.put(key("p"), entry("same"))
    shard = tmp_path / "c" / "cache.jsonl"
    assert len(shard.read_text().strip().splitlines()) == 1


def test_torn_final_line_is_skipped(tmp_path):
    cache = PersistentCache(tmp_path / "c")
    cache.put(key("p"), entry("ok"))
    shard = tmp_path / "c" / "cache.jsonl"
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"key": "abc", "te')  # simulated crash mid-write
    reopened = PersistentCache(tmp_path / "c")
    assert reopened.get(key("p")) == entry("ok")
    assert len(reopened) == 1


def test_clear_deletes_shards(tmp_path):
    cache = PersistentCache(tmp_path / "c")
    cache.put(key("p"), entry("x"))
    cache.clear()
    assert len(cache) == 0
    assert list((tmp_path / "c").iterdir()) == []
    assert PersistentCache(tmp_path / "c").get(key("p")) is None


def test_compact_rewrites_one_line_per_key(tmp_path):
    cache = PersistentCache(tmp_path / "c")
    for value in ("v1", "v2", "v3"):
        cache.put(key("p"), entry(value))
    shard = tmp_path / "c" / "cache.jsonl"
    assert len(shard.read_text().strip().splitlines()) == 3
    cache.compact()
    lines = shard.read_text().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"digest": key("p").hex(), "text": "v3", "tokens": [2, 7]}


# ------------------------------------------------------- cluster shard handoff
def test_concurrent_writers_on_disjoint_shard_dirs(tmp_path):
    """Cluster regime: N workers each append to their own shard directory."""
    import threading

    def warm(worker_index: int) -> None:
        shard = PersistentCache(tmp_path / f"worker-{worker_index:02d}")
        for i in range(40):
            shard.put(key(f"worker {worker_index} prompt {i}"), entry(f"answer {i}"))

    threads = [threading.Thread(target=warm, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for worker_index in range(4):
        reopened = PersistentCache(tmp_path / f"worker-{worker_index:02d}")
        assert len(reopened) == 40
        assert reopened.get(key(f"worker {worker_index} prompt 7")) == entry("answer 7")
        # Handoff stays local: no worker sees another worker's entries.
        assert reopened.get(key(f"worker {(worker_index + 1) % 4} prompt 7")) is None


def test_concurrent_writers_through_one_cache_instance(tmp_path):
    """Thread-safety of one shard under parallel appends (engine threads)."""
    import threading

    cache = PersistentCache(tmp_path / "c")

    def write(prefix: str) -> None:
        for i in range(50):
            cache.put(key(f"{prefix} prompt {i}"), entry(f"{prefix} answer {i}"))

    threads = [threading.Thread(target=write, args=(f"t{t}",)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(cache) == 400
    reopened = PersistentCache(tmp_path / "c")
    assert len(reopened) == 400
    assert reopened.get(key("t3 prompt 17")) == entry("t3 answer 17")


def test_reopen_after_crash_with_torn_line_mid_file(tmp_path):
    """A torn line anywhere in a shard is skipped; later entries survive.

    An interrupted writer can leave a truncated record that other processes
    append after (the cluster handoff case: a worker dies mid-put and a
    fresh worker re-opens + extends the same shard directory).
    """
    cache = PersistentCache(tmp_path / "c")
    cache.put(key("before"), entry("kept"))
    shard = tmp_path / "c" / "cache.jsonl"
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"key": "deadbeef", "text": "tru\n')  # crash mid-record
    survivor = PersistentCache(tmp_path / "c")
    survivor.put(key("after"), entry("also kept"))
    reopened = PersistentCache(tmp_path / "c")
    assert reopened.get(key("before")) == entry("kept")
    assert reopened.get(key("after")) == entry("also kept")
    assert len(reopened) == 2


ROW = entry_record(key("p"), entry("t"))


@pytest.mark.parametrize(
    "write",
    [lambda cache: cache.put(key("p"), entry("t")), lambda cache: cache.absorb([ROW])],
    ids=["put", "absorb-entry"],
)
def test_a_failed_append_is_retried_not_forgotten(tmp_path, monkeypatch, write):
    """Write first, remember second: what memory holds is on disk.

    At the parent the entry was remembered before its append, so after one
    failed append the retry was skipped as "already durable" and a reopened
    cache never had it.
    """
    appends = []

    def full_disk_once(file, mode="r", *args, **kwargs):
        if "a" in mode:
            appends.append(file)
            if len(appends) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
        return open(file, mode, *args, **kwargs)

    cache = PersistentCache(tmp_path / "c")
    monkeypatch.setattr("repro.serving.cache.open", full_disk_once, raising=False)
    with pytest.raises(OSError):
        write(cache)
    assert len(appends) == 1
    assert cache.get(key("p")) is PersistentCache(tmp_path / "c").get(key("p")) is None
    write(cache)  # the retry lands ...
    assert cache.get(key("p")) == entry("t")
    assert PersistentCache(tmp_path / "c").get(key("p")) == entry("t")  # ... and survives


@pytest.mark.parametrize("line", ["null", "[1]", '"x"', "5"])
def test_a_json_line_that_is_not_an_object_is_skipped(tmp_path, line):
    """Valid JSON that is not a record counts as torn; neighbours survive.

    At the parent such a line raised ``AttributeError`` at open, so the
    directory could not be opened at all.
    """
    cache = PersistentCache(tmp_path / "c")
    cache.put(key("before"), entry("kept"))
    with open(cache.log_path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    PersistentCache(tmp_path / "c").put(key("after"), entry("also kept"))
    reopened = PersistentCache(tmp_path / "c")
    assert [reopened.get(key(p)) for p in ("before", "after")] == [entry("kept"), entry("also kept")]
    assert len(reopened) == 2


def test_a_failed_compaction_leaves_the_log_whole(tmp_path, monkeypatch):
    """Write-then-rename: a rewrite that fails changes neither disk nor memory.

    At the parent the shard files were unlinked before the rewrite, so a
    full disk during the source-side drop of a join lost the whole shard.
    """
    cache = PersistentCache(tmp_path / "c")
    for i in range(5):
        cache.put(key(f"p{i}"), entry(f"t{i}"))

    def full_disk_on_rewrite(file, mode="r", *args, **kwargs):
        if "w" in mode:
            raise OSError(errno.ENOSPC, "No space left on device")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr("repro.serving.cache.open", full_disk_on_rewrite, raising=False)
    with pytest.raises(OSError):
        cache.drop({key("p1")})
    monkeypatch.undo()
    assert [path.name for path in (tmp_path / "c").iterdir()] == ["cache.jsonl"]
    for state in (cache, PersistentCache(tmp_path / "c")):
        assert [state.get(key(f"p{i}")) for i in range(5)] == [entry(f"t{i}") for i in range(5)]
    assert cache.drop({key("p1")}) == 1  # the retry lands ...
    reopened = PersistentCache(tmp_path / "c")  # ... and survives
    assert len(reopened) == 4 and reopened.get(key("p1")) is None


def test_every_byte_prefix_of_the_log_opens_to_a_state_that_was_written(tmp_path):
    """A crash leaves a prefix of the one log; every prefix opens consistently."""
    written = PersistentCache(tmp_path / "full")
    written.put(key("p"), entry("première"))  # non-ASCII: some cuts split a UTF-8 sequence
    written.absorb([entry_record(key("r"), entry("t-r"))])
    written.put(key("q"), entry("t-q"))
    written.put(key("p"), entry("second"))
    entries = {"p": {entry("première"), entry("second")}, "q": {entry("t-q")}, "r": {entry("t-r")}}
    log = written.log_path.read_bytes()
    crashed = tmp_path / "crashed"
    crashed.mkdir()
    for cut in range(len(log) + 1):
        prefix = log[:cut]
        (crashed / "cache.jsonl").write_bytes(prefix)
        cache = PersistentCache(crashed)
        for prompt, allowed in entries.items():
            assert cache.get(key(prompt)) in allowed | {None}
        for stored, kept in cache.items():
            record = entry_record(stored, kept)
            assert json.dumps(record, ensure_ascii=False).encode() in prefix
    assert [cache.get(key(p)) for p in "pqr"] == [entry("second"), entry("t-q"), entry("t-r")]


def test_an_older_logs_route_records_are_skipped_and_compacted_away(tmp_path):
    """A log written while entries were attributed to spec keys still opens:
    its ``{"key", "route"}`` lines are counted stale and the next
    compaction leaves entries only."""
    log = configure_default_event_log(capacity=64)
    try:
        cache = PersistentCache(tmp_path / "c")
        cache.put(key("p"), entry("t"))
        with open(cache.log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": older_key("p"), "route": "spec-1"}) + "\n")
        reopened = PersistentCache(tmp_path / "c")
        (event,) = log.events(kind="pcache.anomaly")
        assert (event["torn_lines"], event["stale_lines"]) == (0, 1)
        assert reopened.items() == [(key("p"), entry("t"))]
        reopened.compact()
        lines = reopened.log_path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [entry_record(key("p"), entry("t"))]
    finally:
        configure_default_event_log(capacity=8192)


def test_an_older_logs_entries_without_counts_are_skipped_and_compacted_away(tmp_path):
    """A ``{"key", "text"}`` record, from before entries kept the backend's
    counts, is counted stale and not served: there is no tokenizer to count
    it again with, so its prompt is a miss."""
    log = configure_default_event_log(capacity=64)
    try:
        cache = PersistentCache(tmp_path / "c")
        cache.put(key("p"), entry("t"))
        with open(cache.log_path, "a", encoding="utf-8") as handle:
            for prompt, text in (("q", "old"), ("p", "older")):
                handle.write(json.dumps({"key": older_key(prompt), "text": text}) + "\n")
        reopened = PersistentCache(tmp_path / "c")
        (event,) = log.events(kind="pcache.anomaly")
        assert (event["torn_lines"], event["stale_lines"], event["live_entries"]) == (0, 2, 1)
        assert (reopened.get(key("p")), reopened.get(key("q"))) == (entry("t"), None)
        reopened.compact()
        lines = reopened.log_path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [entry_record(key("p"), entry("t"))]
    finally:
        configure_default_event_log(capacity=8192)


def test_an_older_log_opens_cold_and_is_compacted_away(tmp_path):
    """A log written while entries were keyed by the prompt alone
    (``{"key", "text", "tokens"}`` records) serves nothing: its model is
    not known, so each record is counted stale, and compaction drops it."""
    log = configure_default_event_log(capacity=64)
    try:
        directory = tmp_path / "c"
        directory.mkdir()
        with open(directory / "cache.jsonl", "w", encoding="utf-8") as handle:
            for prompt in ("p", "q"):
                record = {"key": older_key(prompt), "text": "old", "tokens": [1, 1]}
                handle.write(json.dumps(record) + "\n")
        reopened = PersistentCache(directory)
        (event,) = log.events(kind="pcache.anomaly")
        assert (event["torn_lines"], event["stale_lines"], event["live_entries"]) == (0, 2, 0)
        assert len(reopened) == 0 and reopened.get(key("p")) is None
        reopened.compact()
        assert reopened.log_path.read_text() == ""
    finally:
        configure_default_event_log(capacity=8192)


@pytest.mark.parametrize("digest", ["abc", "zz" * 32, "ab" * 16, 5, None])
def test_a_record_whose_digest_is_not_a_key_is_torn(tmp_path, digest):
    cache = PersistentCache(tmp_path / "c")
    cache.put(key("p"), entry("t"))
    with open(cache.log_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"digest": digest, "text": "u", "tokens": [1, 1]}) + "\n")
    log = configure_default_event_log(capacity=64)
    try:
        reopened = PersistentCache(tmp_path / "c")
        (event,) = log.events(kind="pcache.anomaly")
        assert (event["torn_lines"], event["stale_lines"]) == (1, 0)
        assert reopened.items() == [(key("p"), entry("t"))]
    finally:
        configure_default_event_log(capacity=8192)


@pytest.mark.parametrize(
    "tokens",
    [None, [3], [3, 4, 5], [3, -1], [3, 1.5], [True, 2], ["3", 2], {"p": 3, "c": 2}],
    ids=["missing", "one", "three", "negative", "float", "bool", "string", "object"],
)
def test_absorb_skips_a_row_whose_counts_are_invalid(tmp_path, tokens):
    cache = PersistentCache(tmp_path / "c")
    row = {"digest": key("p").hex(), "text": "t"}
    if tokens is not None:
        row["tokens"] = tokens
    good = entry_record(key("q"), entry("u"))
    assert cache.absorb([row, good]) == 1
    assert (cache.get(key("p")), cache.get(key("q"))) == (None, entry("u"))
    reopened = PersistentCache(tmp_path / "c")
    assert reopened.items() == [(key("q"), entry("u"))]


@pytest.mark.parametrize("tokens", [[3], [3, -1], [True, 2], ["3", 2]])
def test_a_record_whose_counts_are_invalid_is_torn(tmp_path, tokens):
    cache = PersistentCache(tmp_path / "c")
    cache.put(key("p"), entry("t"))
    with open(cache.log_path, "a", encoding="utf-8") as handle:
        record = {"digest": key("p").hex(), "text": "other", "tokens": tokens}
        handle.write(json.dumps(record) + "\n")
    log = configure_default_event_log(capacity=64)
    try:
        reopened = PersistentCache(tmp_path / "c")
        (event,) = log.events(kind="pcache.anomaly")
        assert (event["torn_lines"], event["stale_lines"]) == (1, 0)
        assert reopened.get(key("p")) == entry("t")
    finally:
        configure_default_event_log(capacity=8192)
