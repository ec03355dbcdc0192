"""Tests for the wire transport (handshake, framing, multiplexing).

The contract under test: one server process serves a JSON-lines client
(v1 flat or v2 envelope, blank-line flush) and a binary-framed pipelined
client **concurrently**, with bit-identical results.  Framing violations
(torn frames, oversized declared lengths, a handshake that does not offer
``"bin"``) are connection-fatal with a best-effort ``bad_frame`` error
response, and the server lives on.
"""

import asyncio
import io
import json
import socket
import struct
import threading
import time

import pytest

from repro.api import Client, TransformationSpec
from repro.core import UniDM, UniDMConfig
from repro.llm import CachedLLM
from repro.obs import MetricsRegistry, get_default_event_log
from repro.serving import (
    EngineConfig,
    ExecutionEngine,
    ServingService,
    build_service,
    serve_lines,
)
from repro.serving.transport import (
    FRAME_BINARY,
    MAX_PENDING_REQUESTS,
    FrameError,
    WireConnection,
    _Connection,
    client_hello,
    decode_frame_payload,
    encode_frame,
    encode_line,
    order_responses,
    read_frame,
    start_wire_server,
)

_HEADER = struct.Struct(">I")


# ------------------------------------------------------------------ fixtures
def _serve_on_thread(handle_batch, **kwargs):
    """A wire server on a daemon loop thread; returns (port, stop)."""
    ready = threading.Event()
    holder = {}
    loop = asyncio.new_event_loop()

    def run() -> None:
        asyncio.set_event_loop(loop)
        server = loop.run_until_complete(
            start_wire_server(handle_batch, port=0, **kwargs)
        )
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


@pytest.fixture
def service_port():
    """The real service (seed-0 stack) behind the wire server."""
    service = build_service(seed=0, batch_size=4, workers=4)
    port, stop = _serve_on_thread(service.handle_batch)
    yield port
    stop()


@pytest.fixture
def echo_port():
    """A zero-work echo handler: transport mechanics without task execution."""

    def echo(requests):
        return [
            {"v": 2, "id": r.get("id"), "ok": True, "result": {"echo": r}}
            for r in requests
        ]

    port, stop = _serve_on_thread(echo, max_frame_bytes=64 * 1024)
    yield port
    stop()


def _negotiate_binary(port: int):
    """Raw-socket handshake; returns (socket, buffered reader) in bin mode."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(encode_line(client_hello()))
    reader = sock.makefile("rb")
    hello = json.loads(reader.readline())
    assert hello["frame"] == FRAME_BINARY
    return sock, reader


def _read_raw_frame(reader) -> dict:
    header = reader.read(_HEADER.size)
    assert len(header) == _HEADER.size, "connection closed before a frame"
    (length,) = _HEADER.unpack(header)
    body = reader.read(length)
    assert len(body) == length
    return decode_frame_payload(body)


V2_TRANSFORM = {
    "type": "transformation",
    "value": "7",
    "examples": [["1", "one"], ["2", "two"]],
}


# ---------------------------------------------------- mixed-protocol serving
def test_mixed_protocol_clients_bit_identical(service_port):
    """A legacy lines client and a binary pipelined client, concurrently."""
    barrier = threading.Barrier(2, timeout=30)
    outcome = {}

    def legacy_client() -> None:
        sock = socket.create_connection(("127.0.0.1", service_port), timeout=30)
        lines = b"".join(
            encode_line({"v": 2, "id": i, "task": dict(V2_TRANSFORM)})
            for i in range(8)
        )
        barrier.wait()
        sock.sendall(lines + b"\n")  # blank line flushes the batch
        reader = sock.makefile("rb")
        outcome["legacy"] = [json.loads(reader.readline()) for _ in range(8)]
        sock.close()

    def binary_client() -> None:
        conn = WireConnection.open("127.0.0.1", service_port, timeout=30)
        requests = [
            {"v": 2, "id": i, "task": dict(V2_TRANSFORM)} for i in range(8)
        ]
        barrier.wait()
        outcome["binary"] = conn.send_batch(requests)
        conn.close()

    threads = [
        threading.Thread(target=legacy_client),
        threading.Thread(target=binary_client),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()

    # Bit-identical: the same v2 envelope yields the same response object
    # regardless of which framing carried it.
    assert outcome["legacy"] == outcome["binary"]
    assert all(r["ok"] for r in outcome["legacy"])


def test_legacy_v2_envelope_still_served(service_port):
    sock = socket.create_connection(("127.0.0.1", service_port), timeout=30)
    sock.sendall(encode_line({"v": 2, "id": "a", "task": dict(V2_TRANSFORM)}) + b"\n")
    response = json.loads(sock.makefile("rb").readline())
    sock.close()
    assert response["v"] == 2 and response["id"] == "a" and response["ok"]


def test_lines_only_hello_is_refused_with_bad_frame(echo_port, monkeypatch):
    """There is no multiplexed lines mode: a hello must offer ``"bin"``."""
    lines_only = {"repro": 1, "frames": ["lines"]}
    sock = socket.create_connection(("127.0.0.1", echo_port), timeout=10)
    sock.sendall(encode_line(lines_only))
    reader = sock.makefile("rb")
    refusal = json.loads(reader.readline())
    assert refusal["ok"] is False and refusal["error"]["code"] == "bad_frame"
    assert reader.read() == b""  # closed
    sock.close()
    # The client surfaces a refused handshake instead of guessing a mode.
    monkeypatch.setattr("repro.serving.transport.client_hello", lambda: lines_only)
    with pytest.raises(ConnectionError):
        WireConnection.open("127.0.0.1", echo_port, timeout=10)


# ------------------------------------------------------------ frame failures
def test_oversized_frame_is_rejected_with_bad_frame(echo_port):
    sock, reader = _negotiate_binary(echo_port)
    sock.sendall(_HEADER.pack(1024 * 1024))  # declares 1 MiB; limit is 64 KiB
    response = _read_raw_frame(reader)
    assert response["ok"] is False
    assert response["error"]["code"] == "bad_frame"
    assert reader.read() == b""  # connection closed: sync is unrecoverable
    sock.close()


def test_torn_frame_is_rejected_with_bad_frame(echo_port):
    sock, reader = _negotiate_binary(echo_port)
    sock.sendall(_HEADER.pack(100) + b'{"v": 2')  # 100 declared, 7 sent
    sock.shutdown(socket.SHUT_WR)  # EOF mid-payload
    response = _read_raw_frame(reader)
    assert response["ok"] is False
    assert response["error"]["code"] == "bad_frame"
    assert reader.read() == b""
    sock.close()


def test_newline_where_a_length_prefix_is_expected_is_fatal(echo_port):
    """Binary mode has no padding: a stray LF reads as an oversized header."""
    sock, reader = _negotiate_binary(echo_port)
    sock.sendall(b"\n" + encode_frame({"v": 2, "id": 9}))
    response = _read_raw_frame(reader)
    assert response["ok"] is False
    assert response["error"]["code"] == "bad_frame"
    assert reader.read() == b""  # connection-fatal ...
    sock.close()
    conn = WireConnection.open("127.0.0.1", echo_port, timeout=10)
    try:  # ... but the server is alive
        assert conn.send_batch([{"v": 2, "id": 1}])[0]["ok"]
    finally:
        conn.close()


# --------------------------------------------------------------- backpressure
def test_batch_larger_than_the_server_inbox_completes(echo_port):
    """Regression: the sync client used to write a whole batch before reading.

    Past the server's per-connection inbox bound both sides then waited on
    each other's full socket buffers until the timeout.  The connection now
    bounds what it has in flight and interleaves reads.
    """
    count = 6 * MAX_PENDING_REQUESTS
    requests = [{"v": 2, "id": i, "pad": "x" * 8192} for i in range(count)]
    conn = WireConnection.open("127.0.0.1", echo_port, timeout=5)
    try:
        responses = conn.send_batch(requests)
    finally:
        conn.close()
    assert [r["id"] for r in responses] == list(range(count))
    assert responses[-1]["result"]["echo"]["pad"] == "x" * 8192


# ----------------------------------------------------------------- unit level
def test_a_dispatch_of_n_requests_is_one_write_that_still_correlates_by_id():
    class RecordingWriter:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(bytes(data))

        async def drain(self):
            pass

    def handle_batch(group):  # answers out of order: only ids pair them up
        return [
            {"v": 2, "id": r["id"], "ok": True, "result": {"echo": r["n"]}}
            for r in reversed(group)
        ]

    requests = [{"v": 2, "id": f"r{n}", "n": n} for n in range(32)]

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join(encode_frame(request) for request in requests))
        reader.feed_eof()
        writer = RecordingWriter()
        await _Connection(handle_batch, reader, writer, max_frame=64 * 1024)._run_multiplexed()
        return writer.writes

    writes = asyncio.run(scenario())
    assert len(writes) == 1  # one dispatch, one write: not 32 sends
    stream = io.BytesIO(writes[0])
    responses = [_read_raw_frame(stream) for _ in requests]
    assert stream.read() == b""
    ordered = order_responses(requests, responses)
    assert [(r["id"], r["result"]["echo"]) for r in ordered] == [(f"r{n}", n) for n in range(32)]


def test_order_responses_reorders_by_id():
    requests = [{"id": "a"}, {"id": "b"}, {"id": "c"}]
    shuffled = [{"id": "c"}, {"id": "a"}, {"id": "b"}]
    assert order_responses(requests, shuffled) == [
        {"id": "a"},
        {"id": "b"},
        {"id": "c"},
    ]


def test_order_responses_keeps_arrival_order_without_unique_ids():
    requests = [{"id": 1}, {"id": 1}]
    responses = [{"id": 1, "n": "first"}, {"id": 1, "n": "second"}]
    assert order_responses(requests, responses) == responses


def test_read_frame_raises_on_oversized_length():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(_HEADER.pack(2048) + b"x" * 10)
        reader.feed_eof()
        with pytest.raises(FrameError):
            await read_frame(reader, max_frame=1024)

    asyncio.run(scenario())


def test_pool_reuses_released_connections():
    """``Client.remote`` keeps its own idle connections: a finished batch's
    connection carries the next one, at most ``pool_size`` stay parked, one
    that died while parked is skipped, and ``close()`` closes the parked."""
    together = threading.Barrier(3)

    def echo(requests):
        if requests[0]["id"] == "together":
            together.wait(10)  # three batches, three connections, all open
        return [{"v": 2, "id": r["id"], "ok": True, "result": {}} for r in requests]

    port, stop = _serve_on_thread(echo)
    backend = Client.remote("127.0.0.1", port, timeout=10, pool_size=2)._backend
    try:
        backend.send([{"v": 2, "id": 0}])
        (first,) = backend._idle
        backend.send([{"v": 2, "id": 1}])
        assert backend._idle == [first]  # keep-alive: no reconnect, no re-handshake

        threads = [
            threading.Thread(target=backend.send, args=([{"v": 2, "id": "together"}],))
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        survivor, dead = backend._idle  # the third was closed, not parked
        dead.close()
        backend.send([{"v": 2, "id": 2}])
        assert backend._idle == [survivor]
    finally:
        backend.close()
        stop()
    assert backend._idle == [] and not survivor.alive


# ------------------------------------------- connections meet in one batcher
def test_two_connections_share_round_trips_and_single_flight(gated_llm):
    """Prompts of two connections ride one backend round trip, and a spec both
    send while neither has an answer yet costs one backend call per prompt."""
    registry = MetricsRegistry()
    backend = gated_llm()
    engine = ExecutionEngine(EngineConfig(workers=8), metrics=registry)
    service = ServingService(
        UniDM(CachedLLM(backend), UniDMConfig.full(seed=0)), engine, metrics=registry
    )

    def spec(tag):  # the tag marks every prompt the spec issues
        return TransformationSpec(value=f"v-{tag}", examples=[[f"in-{tag}", f"out-{tag}"]])

    def submitted():
        return registry.snapshot()["counters"].get("batcher.requests", 0)

    port, stop = _serve_on_thread(service.handle_batch)
    answers = {}

    def connection(name, tags):
        with Client.remote("127.0.0.1", port) as client:
            answers[name] = client.submit_many([spec(tag) for tag in tags])

    threads = [
        threading.Thread(target=connection, args=("holder", ["h"])),
        threading.Thread(target=connection, args=("one", ["a", "s"])),
        threading.Thread(target=connection, args=("two", ["b", "s"])),
    ]
    try:
        threads[0].start()
        assert backend.entered.acquire(timeout=10)  # the LLM thread is taken
        for thread in threads[1:]:
            thread.start()
        deadline = time.monotonic() + 10.0
        while submitted() < 5 and time.monotonic() < deadline:
            time.sleep(0.002)
        # Both connections' first prompts wait in the batcher, behind the
        # holder's round trip, at the same time.
        assert submitted() == 5
        backend.gate.set()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        backend.gate.set()
        stop()
        service.close()

    assert all(result.ok for results in answers.values() for result in results)
    assert any(
        any("in-a" in p for p in prompts) and any("in-b" in p for p in prompts)
        for _, prompts in backend.batches
    )
    # Single flight, with no table: the shared spec's prompts met in one batch
    # (deduplicated there) or found the entry stored — five specs answered,
    # and the backend was asked what four lone runs ask, each prompt once.
    assert answers["one"][1].answer == answers["two"][1].answer
    alone = gated_llm(open_gate=True)
    for tag in "habs":
        UniDM(alone, UniDMConfig.full(seed=0)).run(spec(tag).to_task())
    assert len(backend.prompts) == len(set(backend.prompts))
    assert set(backend.prompts) == set(alone.prompts)


# ------------------------------------------------- a batch that raises
def _line_sender(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    reader = sock.makefile("rb")

    def send(requests):
        sock.sendall(b"".join(encode_line(r) for r in requests) + b"\n")
        return [json.loads(reader.readline()) for _ in requests]

    return send, sock.close


@pytest.mark.parametrize("framing", ["binary", "lines", "stdin"])
def test_a_batch_that_raises_is_answered_once_and_the_connection_lives_on(
    gated_llm, framing
):
    class FailsFirstCall(gated_llm):
        def __init__(self):
            super().__init__(open_gate=True)
            self.calls = 0

        def complete_batch(self, prompts, kind="other"):
            self.calls += 1
            if self.calls == 1:
                raise ConnectionError(f"backend down ({framing})")
            return super().complete_batch(prompts, kind=kind)

    backend = FailsFirstCall()
    service = ServingService(UniDM(backend, UniDMConfig.full(seed=0)))

    def request(request_id, value):
        return {"v": 2, "id": request_id, "task": {**V2_TRANSFORM, "value": value}}

    first, second = [request(1, "7"), request(2, "8")], [request(3, "9")]
    stop = close = lambda: None
    try:
        if framing == "stdin":
            out = io.StringIO()
            lines = [*first, None, *second]
            text = "".join("\n" if r is None else json.dumps(r) + "\n" for r in lines)
            assert serve_lines(service.handle_batch, io.StringIO(text), out) == 3
            responses = [json.loads(line) for line in out.getvalue().splitlines()]
            failed, served = responses[:2], responses[2:]
        else:
            port, stop = _serve_on_thread(service.handle_batch)
            if framing == "binary":
                conn = WireConnection.open("127.0.0.1", port, timeout=10)
                send, close = conn.send_batch, conn.close
            else:
                send, close = _line_sender(port)
            started = time.monotonic()
            # At the parent no answer came: the client waited out its timeout.
            failed = send(first)
            assert time.monotonic() - started < 5.0
            served = send(second)  # the same connection serves the next batch
    finally:
        close()
        stop()
        service.close()

    assert [r["id"] for r in failed] == [1, 2]
    for response in failed:
        assert not response["ok"] and response["error"]["code"] == "internal_error"
        assert "backend down" in response["error"]["message"]
    assert [(r["id"], r["ok"]) for r in served] == [(3, True)]
    # The operator still learns of it: one event for the failed group.
    [event] = [
        event
        for event in get_default_event_log().events(kind="transport.batch_failed")
        if f"backend down ({framing})" in event["error"]
    ]
    assert event["requests"] == 2
    # The failed group ran once: one backend call, then the next batch's own.
    assert backend.calls == 1 + len(backend.batches)
