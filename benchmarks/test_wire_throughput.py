"""Benchmark: pipelined negotiated transport vs thread-per-connection lines.

The transport acceptance claim: at 64 in-flight requests, the per-request
round-trip overhead of one pooled, binary-framed, multiplexed connection
must be at least **2x lower** than the legacy usage pattern — one
connection per request, JSON line + blank-line flush, one thread per
connection on the client.

Both arms talk to the *same* asyncio wire server over a no-op echo handler,
so the measured difference is pure transport: connect/teardown amortization,
frame encoding, and request pipelining (all 64 requests are on the wire
before the first response is read) versus 64 sequential connect-send-recv
round trips racing on 64 threads.

Results land in ``BENCH_wire.json``; ``scripts/check_bench.py`` gates the
``overhead_reduction`` ratio (within-run, so CI runner speed cannot fail
the gate).
"""

import asyncio
import json
import socket
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from conftest import run_once
from report import write_bench

from repro.serving.transport import FRAME_BINARY, WireConnection, start_wire_server

#: Concurrent requests per round — the acceptance point of the 2x claim.
IN_FLIGHT = 64
#: Timing rounds per arm; the median round sheds scheduler noise.
ROUNDS = 9
#: The gated ratio is clamped here: the raw reduction routinely lands far
#: above the 2x acceptance claim (8-12x on an idle machine) but with high
#: run-to-run variance, and a regression floor tracking a lucky high-water
#: baseline would flake.  Clamping keeps the committed baseline — and so
#: the check_bench floor — pinned just above the claim being protected.
GATE_CLAMP = 4.0


def _echo_handler(requests):
    """Zero-work batch handler: the wire is the only cost being measured."""
    return [
        {"v": 2, "id": request.get("id"), "ok": True, "result": {"answer": "pong"}}
        for request in requests
    ]


def _start_server():
    """The wire server on a daemon loop thread; returns (port, stop)."""
    ready = threading.Event()
    holder = {}
    loop = asyncio.new_event_loop()

    def run() -> None:
        asyncio.set_event_loop(loop)
        server = loop.run_until_complete(start_wire_server(_echo_handler, port=0))
        holder["port"] = server.sockets[0].getsockname()[1]
        ready.set()
        loop.run_forever()
        server.close()
        loop.run_until_complete(server.wait_closed())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "wire server did not start"

    def stop() -> None:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)

    return holder["port"], stop


def _one_legacy_round_trip(port: int, request_id: int) -> dict:
    """The pre-transport pattern: fresh connection, one line, blank flush."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        line = json.dumps({"v": 2, "id": request_id, "task": {"type": "noop"}})
        sock.sendall(line.encode() + b"\n\n")
        reply = sock.makefile("r").readline()
    return json.loads(reply)


def _baseline_round(port: int, executor: ThreadPoolExecutor) -> float:
    """64 threads x (connect + 1 JSON-lines request + close); wall seconds."""
    started = time.perf_counter()
    futures = [
        executor.submit(_one_legacy_round_trip, port, i) for i in range(IN_FLIGHT)
    ]
    responses = [future.result() for future in futures]
    elapsed = time.perf_counter() - started
    assert len(responses) == IN_FLIGHT
    assert all(isinstance(r.get("id"), int) for r in responses)
    return elapsed


def _pipelined_round(conn: WireConnection) -> float:
    """64 in-flight requests on one negotiated binary connection; wall seconds."""
    requests = [
        {"v": 2, "id": i, "task": {"type": "noop"}} for i in range(IN_FLIGHT)
    ]
    started = time.perf_counter()
    responses = conn.send_batch(requests)
    elapsed = time.perf_counter() - started
    assert [r["id"] for r in responses] == list(range(IN_FLIGHT))
    return elapsed


def test_pipelined_halves_per_request_overhead(benchmark):
    port, stop = _start_server()
    executor = ThreadPoolExecutor(max_workers=IN_FLIGHT)
    conn = WireConnection.open("127.0.0.1", port, timeout=30)
    try:
        # Warm both arms: thread pool spin-up and first-frame costs are
        # one-time, not per-request overhead.
        _baseline_round(port, executor)
        _pipelined_round(conn)

        baseline_s = statistics.median(
            _baseline_round(port, executor) for _ in range(ROUNDS)
        )
        outcome = {}

        def pipelined() -> float:
            outcome["elapsed"] = statistics.median(
                _pipelined_round(conn) for _ in range(ROUNDS)
            )
            return outcome["elapsed"]

        run_once(benchmark, pipelined)
        pipelined_s = outcome["elapsed"]

        baseline_per = baseline_s / IN_FLIGHT
        pipelined_per = pipelined_s / IN_FLIGHT
        reduction = baseline_per / pipelined_per
        # The acceptance claim: >= 2x lower per-request overhead at 64 in-flight.
        assert reduction >= 2.0, (
            f"pipelined {pipelined_per * 1e6:.0f}us/req vs thread-per-connection "
            f"{baseline_per * 1e6:.0f}us/req — only {reduction:.2f}x lower"
        )

        write_bench(
            "wire",
            {
                "in_flight": IN_FLIGHT,
                "rounds": ROUNDS,
                "handler": "echo (zero work — pure transport cost)",
                "baseline_thread_per_connection": {
                    "elapsed_s": round(baseline_s, 5),
                    "per_request_us": round(baseline_per * 1e6, 1),
                },
                "pipelined_binary": {
                    "frame": FRAME_BINARY,
                    "elapsed_s": round(pipelined_s, 5),
                    "per_request_us": round(pipelined_per * 1e6, 1),
                },
                "overhead_reduction_raw": round(reduction, 3),
                "overhead_reduction": round(min(reduction, GATE_CLAMP), 3),
            },
        )
    finally:
        conn.close()
        executor.shutdown(wait=False)
        stop()
