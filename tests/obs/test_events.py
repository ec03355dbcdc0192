"""Event-log tests: bounded memory, deterministic sampling, concurrency.

Satellite acceptance: the log's ring never exceeds its capacity under
concurrent load, and the head-based sampling verdict is a pure function of
the trace id — the same in every process, so trees never come back
half-sampled.
"""

import json
import threading

import pytest

from repro.obs import EventLog, configure_default_event_log, get_default_event_log
from repro.obs.events import read_events, render_waterfall, sample_decision, trace_ids


# ------------------------------------------------------------------ bounding
def test_ring_is_bounded_and_counts_drops():
    log = EventLog(capacity=8)
    for index in range(20):
        assert log.emit("tick", index=index)
    assert len(log) == 8
    assert log.dropped == 12
    assert [e["index"] for e in log.events()] == list(range(12, 20))


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventLog(capacity=0)
    with pytest.raises(ValueError):
        EventLog(sample_rate=1.5)


def test_bounded_size_under_concurrent_load():
    log = EventLog(capacity=100)
    n_threads, per_thread = 8, 500

    def hammer(tag):
        for index in range(per_thread):
            log.emit("load", tag=tag, index=index)

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(log) == 100
    assert log.dropped == n_threads * per_thread - 100


# ------------------------------------------------------------------ sampling
def test_sample_decision_is_deterministic_and_proportional():
    ids = [f"{i:016x}" for i in range(2000)]
    first = [sample_decision(t, 0.25) for t in ids]
    second = [sample_decision(t, 0.25) for t in ids]
    assert first == second  # pure function of (id, rate)
    kept = sum(first)
    assert 0.15 < kept / len(ids) < 0.35  # roughly the requested rate
    assert all(sample_decision(t, 1.0) for t in ids)
    assert not any(sample_decision(t, 0.0) for t in ids)


def test_emit_respects_sampling_but_keeps_traceless_events():
    log = EventLog(capacity=64, sample_rate=0.0)
    assert not log.emit("span", trace="ab" * 8)
    assert log.emit("worker.death", worker="w0")  # no trace -> always kept
    assert [e["kind"] for e in log.events()] == ["worker.death"]


def test_sampling_verdict_is_identical_across_log_instances():
    # Same rate, different "processes" (instances): identical verdicts, so a
    # distributed trace is either fully present or fully absent.
    ids = [f"{i:016x}" for i in range(500)]
    a = EventLog(capacity=8, sample_rate=0.3)
    b = EventLog(capacity=8, sample_rate=0.3)
    assert [a.sampled(t) for t in ids] == [b.sampled(t) for t in ids]


# ----------------------------------------------------------------- file sink
def test_file_sink_appends_jsonl_and_read_skips_torn_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(capacity=8, path=path)
    log.emit("one", trace="aa" * 8, n=1)
    log.emit("two", n=2)
    log.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "torn-')  # crashed writer's final line
    events = read_events(path)
    assert [e["kind"] for e in events] == ["one", "two"]
    assert json.loads(path.read_text().splitlines()[0])["trace"] == "aa" * 8


def test_default_log_configuration_and_env_export(tmp_path, monkeypatch):
    import os

    monkeypatch.delenv("REPRO_EVENTS_FILE", raising=False)
    monkeypatch.delenv("REPRO_EVENTS_SAMPLE", raising=False)
    path = tmp_path / "sink.jsonl"
    try:
        log = configure_default_event_log(
            capacity=16, path=path, sample_rate=0.5, export_env=True
        )
        assert get_default_event_log() is log
        assert os.environ["REPRO_EVENTS_FILE"] == str(path)
        assert float(os.environ["REPRO_EVENTS_SAMPLE"]) == 0.5
    finally:
        # Plain pops, NOT monkeypatch.delenv: export_env wrote the vars
        # directly, so a delenv here would snapshot those values and
        # *restore* them at teardown, leaking sample_rate=0.5 into every
        # later test (and any subprocess workers they spawn).  The delenvs
        # above already restore the pre-test state at teardown.
        os.environ.pop("REPRO_EVENTS_FILE", None)
        os.environ.pop("REPRO_EVENTS_SAMPLE", None)
        configure_default_event_log(capacity=8192)


# ----------------------------------------------------------------- waterfall
def test_trace_ids_lists_first_seen_order():
    events = [
        {"kind": "span", "trace": "b" * 16},
        {"kind": "span", "trace": "a" * 16},
        {"kind": "span", "trace": "b" * 16},
        {"kind": "worker.death"},
    ]
    assert trace_ids(events) == ["b" * 16, "a" * 16]


def test_render_waterfall_tree_offsets_and_critical_path():
    trace = "ef" * 8
    events = [
        {"kind": "span", "trace": trace, "span": "1-1", "parent": None,
         "name": "root", "start": 10.0, "dur": 0.01, "status": "ok"},
        {"kind": "span", "trace": trace, "span": "1-2", "parent": "1-1",
         "name": "fast", "start": 10.001, "dur": 0.002, "status": "ok",
         "attrs": {"kind": "x"}},
        {"kind": "span", "trace": trace, "span": "1-3", "parent": "1-1",
         "name": "slow", "start": 10.004, "dur": 0.006, "status": "error"},
    ]
    rendered = render_waterfall(events, trace)
    lines = rendered.splitlines()
    assert lines[0].startswith(f"trace {trace} — 3 spans")
    assert "*root" in rendered and "*slow" in rendered  # critical path
    assert "*fast" not in rendered
    assert "kind=x" in rendered
    assert "[ERROR]" in rendered
    # Children are indented beneath the root.
    root_line = next(line for line in lines if "root" in line)
    child_line = next(line for line in lines if "slow" in line)
    assert child_line.index("*slow") > root_line.index("*root")


def test_render_waterfall_handles_unknown_trace_and_orphans():
    assert "no spans recorded" in render_waterfall([], "ab" * 8)
    # A span whose parent was never recorded becomes a root, not a crash.
    trace = "cd" * 8
    rendered = render_waterfall(
        [{"kind": "span", "trace": trace, "span": "1-9", "parent": "gone",
          "name": "orphan", "start": 0.0, "dur": 0.001, "status": "ok"}],
        trace,
    )
    assert "orphan" in rendered


# ------------------------------------------------------------------- rotation
def test_rotation_caps_file_size_and_keeps_history(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(capacity=64, path=path, max_bytes=2000, keep=2)
    for index in range(200):
        log.emit("tick", index=index, pad="x" * 40)
    log.close()

    assert log.rotations > 0
    rotated = sorted(p.name for p in tmp_path.iterdir())
    assert "events.jsonl" in rotated
    assert "events.jsonl.1" in rotated
    # Never more than keep rotated files beside the live one.
    assert len(rotated) <= 3
    # The live file respects the cap (plus at most one overshooting record).
    assert path.stat().st_size <= 2000 + 200
    # Rotated files hold older events than the live one (which may be
    # freshly rotated and still empty).
    live = read_events(path)
    older = read_events(tmp_path / "events.jsonl.1")
    assert older
    if live:
        assert older[-1]["index"] < live[0]["index"]
    # Nothing was lost inside the retained window: indexes stay contiguous.
    retained = [
        event["index"]
        for name in ("events.jsonl.2", "events.jsonl.1", "events.jsonl")
        if (tmp_path / name).exists()
        for event in read_events(tmp_path / name)
    ]
    assert retained == list(range(retained[0], 200))


def test_rotation_keep_zero_truncates(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(capacity=64, path=path, max_bytes=500, keep=0)
    for index in range(100):
        log.emit("tick", index=index, pad="y" * 40)
    log.close()
    assert log.rotations > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.jsonl"]
    assert path.stat().st_size <= 500 + 100


def test_rotation_validation():
    with pytest.raises(ValueError):
        EventLog(max_bytes=0)
    with pytest.raises(ValueError):
        EventLog(keep=-1)


def test_rotation_config_from_env(tmp_path, monkeypatch):
    from repro.obs.events import (
        ENV_EVENTS_KEEP,
        ENV_EVENTS_MAX_BYTES,
        _log_from_env,
    )

    monkeypatch.setenv("REPRO_EVENTS_FILE", str(tmp_path / "e.jsonl"))
    monkeypatch.setenv(ENV_EVENTS_MAX_BYTES, "1234")
    monkeypatch.setenv(ENV_EVENTS_KEEP, "5")
    log = _log_from_env()
    try:
        assert log.max_bytes == 1234
        assert log.keep == 5
    finally:
        log.close()


def test_configure_default_exports_rotation_env(tmp_path):
    import os

    # Restore the exported vars by hand, NOT via monkeypatch.delenv:
    # deleting a var that the library (not monkeypatch) wrote records the
    # leaked value as the "original", so monkeypatch teardown would put it
    # back — and later tests' subprocess workers then inherit a 4 KiB
    # rotation cap and shred their shared events file.
    exported = (
        "REPRO_EVENTS_FILE",
        "REPRO_EVENTS_SAMPLE",
        "REPRO_EVENTS_MAX_BYTES",
        "REPRO_EVENTS_KEEP",
    )
    saved = {var: os.environ.pop(var, None) for var in exported}
    log = configure_default_event_log(
        path=tmp_path / "e.jsonl", max_bytes=4096, keep=1, export_env=True
    )
    try:
        assert os.environ["REPRO_EVENTS_MAX_BYTES"] == "4096"
        assert os.environ["REPRO_EVENTS_KEEP"] == "1"
    finally:
        log.close()
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        configure_default_event_log()
