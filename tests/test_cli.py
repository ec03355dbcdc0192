"""Tests for the ``python -m repro`` command-line interface."""

import io
import json
import sys

import pytest

from repro.__main__ import main


def test_cli_list_datasets(capsys):
    assert main(["list-datasets"]) == 0
    out = capsys.readouterr().out
    assert "restaurant" in out and "nextiajd" in out


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "figure5" in out


def test_cli_run_experiment_unknown(capsys):
    assert main(["run-experiment", "nope"]) == 2


def test_cli_run_experiment_small(capsys):
    assert main(["run-experiment", "table11", "--max-tasks", "4"]) == 0
    out = capsys.readouterr().out
    assert "Evaporate" in out


def test_cli_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "target prompt:" in out


def test_cli_demo_engine(capsys, tmp_path):
    assert main(["demo", "--engine", "--batch-size", "4", "--workers", "4",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "target prompt:" in out
    assert "engine       :" in out and "tasks/s" in out
    assert "batching     :" in out
    assert "cache        :" in out


def test_cli_run_experiment_engine(capsys):
    assert main(["run-experiment", "table11", "--max-tasks", "4", "--engine"]) == 0
    out = capsys.readouterr().out
    assert "Evaporate" in out
    # The global default engine must not leak past the command.
    from repro.eval import harness

    assert harness._DEFAULT_ENGINE_CONFIG is None


def test_cli_serve_stdin(capsys, monkeypatch):
    requests = [
        {"id": 1, "type": "transformation", "value": "19990415",
         "examples": [["20000101", "2000-01-01"], ["20101231", "2010-12-31"]]},
        {"id": 2, "type": "nope"},
    ]
    stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["serve", "--batch-size", "4", "--workers", "2"]) == 0
    captured = capsys.readouterr()
    responses = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["id"] for r in responses] == [1, 2]
    assert responses[0]["ok"] and responses[0]["answer"] == "1999-04-15"
    assert not responses[1]["ok"]
    assert "served 2 requests" in captured.err


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------- top / doctor / slo
@pytest.fixture()
def live_stats_port():
    """A stats side channel backed by a real service with SLOs configured."""
    from repro.obs import serve_stats_in_thread
    from repro.obs.diagnostics import build_bundle
    from repro.obs.slo import SLOSpec
    from repro.serving import build_service
    from repro.tenancy import TenantConfig, TenantRegistry

    service = build_service(
        seed=0,
        tenants=TenantRegistry([TenantConfig("acme", rate=100.0, burst=10.0)]),
        slos=[
            SLOSpec(
                name="acme-shed", kind="error_rate", tenant="acme",
                budget=0.1, windows=("10s",),
            )
        ],
    )
    port = serve_stats_in_thread(
        service.stats_snapshot,
        "127.0.0.1",
        0,
        monitor=service.monitor,
        doctor_fn=lambda: build_bundle(
            snapshot_fn=service.stats_snapshot,
            monitor=service.monitor,
            config={"command": "test"},
        ),
    )
    assert port is not None
    return port


def test_cli_top_once(capsys, live_stats_port):
    assert main(["top", "--once", "--stats-port", str(live_stats_port)]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "TENANT" in out and "P99_MS" in out and "BUDGET" in out
    assert "(service)" in out
    assert "acme" in out  # tenant named by the SLO shows up even when idle


def test_cli_top_unreachable_fails_cleanly(capsys):
    assert main(["top", "--once", "--stats-port", "1", "--timeout", "0.2"]) == 1
    assert "cannot reach" in capsys.readouterr().err


def test_cli_stats_watch_shares_the_top_renderer(capsys, live_stats_port):
    import threading
    import repro.cli.top as top_module

    # One frame then interrupt: patch sleep to raise like a real Ctrl-C.
    def fake_sleep(seconds):
        raise KeyboardInterrupt

    original = top_module.time.sleep
    top_module.time.sleep = fake_sleep
    try:
        assert main(
            ["stats", "--stats-port", str(live_stats_port), "--watch", "5"]
        ) == 0
    finally:
        top_module.time.sleep = original
    assert "repro top" in capsys.readouterr().out


def test_cli_stats_non_dict_side_channel_fails_cleanly(capsys):
    import socket
    import threading

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    asked = []

    def answer():
        conn, _ = listener.accept()
        asked.append(conn.recv(65536))
        conn.sendall(b"HTTP/1.0 200 OK\r\n\r\n[1, 2, 3]\n")
        conn.close()

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        assert main(["stats", "--stats-port", str(port)]) == 1
        assert "expected a JSON object" in capsys.readouterr().err
    finally:
        listener.close()
        thread.join(5)
    # It asks with GET /, so the port's first-line timeout is never waited out.
    assert asked[0].startswith(b"GET / HTTP/1.0\r\n")


def test_cli_doctor_writes_bundle(tmp_path, capsys, live_stats_port):
    output = tmp_path / "bundle.json"
    assert main(
        ["doctor", "--stats-port", str(live_stats_port), "--output", str(output)]
    ) == 0
    bundle = json.loads(output.read_text())
    assert bundle["bundle"] == "repro-doctor"
    assert bundle["config"] == {"command": "test"}
    assert "captured_at" in bundle and "target" in bundle
    assert "thread_stacks" in bundle


def test_cli_doctor_stdout(capsys, live_stats_port):
    assert main(["doctor", "--stats-port", str(live_stats_port), "--output", "-"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["bundle"] == "repro-doctor"


def test_cli_doctor_requires_stats_port(capsys):
    assert main(["doctor"]) == 2
    assert "--stats-port" in capsys.readouterr().err


def test_cli_serve_rejects_bad_slo(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["serve", "--slo", "broken,kind=nope"]) == 2
    assert "bad SLO configuration" in capsys.readouterr().err


def test_cli_serve_with_slos_reports_them(capsys, monkeypatch, tmp_path):
    slos_file = tmp_path / "slos.json"
    slos_file.write_text(json.dumps({
        "svc-p99": {"kind": "latency", "metric": "service.batch_latency",
                    "threshold": 0.5, "windows": "10s"},
    }))
    request = {"id": 1, "type": "transformation", "value": "19990415",
               "examples": [["20000101", "2000-01-01"]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request) + "\n"))
    assert main(["serve", "--slos-file", str(slos_file)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out.splitlines()[0])["ok"]
