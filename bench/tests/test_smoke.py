"""``python -m bench --smoke``: the whole path, small, plus process hygiene."""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from bench import ROOT
from bench.load import run_workload
from bench.registry import END_TO_END, FAILED_SHARE, PER_LAYER, benchmark_json
from bench.workloads import BY_NAME

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _quiet(message: str) -> None:
    pass


def test_benchmark_json_is_the_registry():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == benchmark_json()
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    names += [w["name"] for w in committed["workloads"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in committed["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("workload", ["interactive", "pipeline_cluster"])
def test_smoke_run_emits_every_metric_and_every_answer_is_right(workload, tmp_path):
    started = time.monotonic()
    sized = BY_NAME[workload].sized(smoke=True)
    untraced = run_workload(sized, 1, 1.0, False, str(tmp_path), _quiet, setup_repeats=1)
    traced = run_workload(sized, 1, 1.0, True, str(tmp_path), _quiet)
    elapsed = time.monotonic() - started

    for result, registry in ((untraced, END_TO_END + (FAILED_SHARE,)), (traced, PER_LAYER)):
        assert result.correct, result.failures
        assert list(result.metrics) == [m.name for m in registry]
        for metric in registry:
            value, unit, _ = result.metrics[metric.name]
            assert unit == metric.unit and _UNIT.match(unit)
            assert isinstance(value, float) and value == value  # a number, not NaN
    assert all(untraced.metrics[m.name][0] > 0 for m in END_TO_END)
    assert untraced.metrics["failed_share"][0] == 0.0
    # The driver's view: exactly the registered names, failed_share kept out.
    assert list(untraced.to_driver_json()["metrics"]) == [m.name for m in END_TO_END]
    assert list(traced.to_driver_json()["metrics"]) == [m.name for m in PER_LAYER]
    # Span attribution worked: server-side spans account for the calls' time.
    assert traced.metrics["trace.coverage"][0] > 0.5
    if workload == "pipeline_cluster":
        assert traced.metrics["flow.dedup_factor"][0] > 1.0
        assert traced.metrics["router.self_ms_per_call"][0] > 0.0
    # Every run removed its own scratch directory.
    assert list(tmp_path.iterdir()) == []
    # Typically 8-9 s; the margin is for a busy machine, not for slower code.
    assert elapsed < 30.0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # A zombie still answers kill(0); the server's parent is gone, so init reaps it.
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.parametrize("how", [signal.SIGKILL, signal.SIGINT, signal.SIGTERM])
def test_the_server_does_not_outlive_a_load_side_that_dies_mid_run(how, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    load = subprocess.Popen(
        [sys.executable, "-m", "bench", "--smoke", "--workload", "interactive",
         "--seconds", "30", "--trace", "0", "--scratch", str(tmp_path)],
        cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        server_pid = None
        for line in load.stderr:
            found = re.search(r"server pid=(\d+)", line)
            if found:
                server_pid = int(found.group(1))
                break
        assert server_pid is not None and _alive(server_pid)
        time.sleep(0.5)  # mid-run: the warm-up or the window is under way
        load.send_signal(how)
        assert load.wait(timeout=20) != 0
        deadline = time.monotonic() + 20
        while _alive(server_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(server_pid)
        if how != signal.SIGKILL:  # an orderly exit also removes its scratch dir
            assert list(tmp_path.iterdir()) == []
    finally:
        if load.poll() is None:
            load.kill()
        load.wait()
        load.stderr.close()
