"""Asyncio-native wire transport: binary frames, multiplexed pipelining.

This module is the socket tier of the serving stack.  One asyncio server
(:func:`start_wire_server`) speaks **two framings on the same port**,
chosen per connection by its first line (the decision table is in
``docs/wire-transport.md``):

* **Binary frames** — the transport.  A connection that opens with the
  handshake line::

      {"repro": 1, "frames": ["bin"]}

  is answered with one JSON line::

      {"repro": 1, "frame": "bin", "max_frame": 8388608}

  and from that byte on every message is a 4-byte big-endian unsigned
  length prefix followed by exactly that many bytes of compact UTF-8 JSON.
  The connection is **multiplexed**: every request is dispatched as it
  arrives, many requests ride in flight concurrently, and responses are
  correlated by the v2 envelope ``id`` — the order they come back in is
  not part of the contract.  Requests that arrive while a dispatch is
  running coalesce into the next one, so a pipelined burst of N requests
  costs ~1 executor hop instead of N connection+thread hops.
* **JSON lines** — the human/debug framing (``nc``, piped files).  A
  connection whose first line is not a handshake sends one JSON object per
  ``\\n``-terminated line; blank lines (or EOF) flush the accumulated batch
  through the handler and responses come back one line each, in request
  order.

A handshake that does not offer ``"bin"`` is refused with a ``bad_frame``
error line and a close — there is no multiplexed lines mode.

Framing errors are connection-fatal in binary mode: an oversized length
prefix, a stream that ends mid-frame or an undecodable payload gets a
best-effort ``bad_frame`` error response and the connection closes,
because a byte stream that lost frame sync cannot be re-entered.  In
lines mode a bad JSON line is answered per line (``bad_json``) and the
connection lives on.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Callable

from .frontdoor import InvalidRequest

__all__ = [
    "FRAME_BINARY",
    "FrameError",
    "HANDSHAKE_KEY",
    "MAX_FRAME_BYTES",
    "PROTOCOL_REVISION",
    "WireConnection",
    "client_hello",
    "decode_frame_payload",
    "encode_frame",
    "encode_line",
    "order_responses",
    "read_frame",
    "server_hello",
    "start_wire_server",
]

#: Key whose presence in a connection's first JSON line marks a handshake
#: (task requests never carry it: they carry ``task`` / ``type`` instead).
HANDSHAKE_KEY = "repro"

#: Revision of the handshake itself (bump only on incompatible changes).
PROTOCOL_REVISION = 1

#: The binary framing's name in handshake ``frames`` / ``frame`` fields.
FRAME_BINARY = "bin"

#: Hard ceiling on one binary frame's payload (bytes).  Large enough for
#: plan-level ``pipeline`` requests carrying whole tables, small enough to
#: bound what one malicious frame can make the server buffer.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Requests buffered per connection before the reader stops consuming the
#: socket (TCP backpressure then reaches the sender).
MAX_PENDING_REQUESTS = 1024

#: Requests a client connection keeps unanswered.  Below the server's inbox
#: bound on purpose: the server's reader then never stops consuming this
#: connection, so the client can always finish a write and get back to
#: reading — the two sides cannot end up blocked on each other's buffers.
MAX_IN_FLIGHT = 256

#: 4-byte big-endian unsigned payload length.
_HEADER = struct.Struct(">I")

#: Contract of a batch handler: raw request objects in, responses out, in
#: request order (mirrors ``repro.serving.service.BatchHandler``).
_Handler = Callable[[list], "list[dict]"]


class FrameError(Exception):
    """A binary frame violated the framing layer (oversized or torn)."""


# ----------------------------------------------------------------- encoding
def encode_frame(payload: Any) -> bytes:
    """One binary frame: length prefix + compact JSON bytes."""
    body = json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode()
    return _HEADER.pack(len(body)) + body


def encode_line(payload: Any) -> bytes:
    """One JSON-lines message (the text framing, and both hello lines)."""
    return (json.dumps(payload, ensure_ascii=False) + "\n").encode()


def decode_frame_payload(body: bytes) -> Any:
    """Parse one frame's payload bytes (raises :class:`FrameError`)."""
    try:
        return json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame payload is not valid JSON: {exc}") from exc


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> "bytes | None":
    """Read one binary frame's payload bytes; ``None`` on clean EOF.

    Raises :class:`FrameError` on an oversized declared length or a stream
    that ends mid-header/mid-payload (a *torn* frame) — both mean frame
    sync is lost and the connection cannot be re-entered.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:  # clean EOF between frames
            return None
        raise FrameError(
            f"torn frame: stream ended {len(exc.partial)} bytes into a header"
        ) from exc
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise FrameError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"torn frame: stream ended {len(exc.partial)} of {length} "
            "bytes into a payload"
        ) from exc


# ---------------------------------------------------------------- handshake
def client_hello() -> dict:
    """The handshake line a client opens with."""
    return {HANDSHAKE_KEY: PROTOCOL_REVISION, "frames": [FRAME_BINARY]}


def server_hello(max_frame: int = MAX_FRAME_BYTES) -> dict:
    """The server's one-line answer accepting the binary framing."""
    return {
        HANDSHAKE_KEY: PROTOCOL_REVISION,
        "frame": FRAME_BINARY,
        "max_frame": max_frame,
    }


def is_handshake(payload: Any) -> bool:
    """Whether a first-line JSON object is a transport handshake."""
    return isinstance(payload, dict) and HANDSHAKE_KEY in payload


def _bad_frame_response(message: str) -> dict:
    """The best-effort error envelope sent before a framing-fatal close."""
    return {
        "v": 2,
        "id": None,
        "ok": False,
        "error": {"code": "bad_frame", "message": message},
    }


# ------------------------------------------------------------------- server
async def start_wire_server(
    handle_batch: _Handler,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> asyncio.AbstractServer:
    """Bind the asyncio wire server over any batch handler.

    Every connection starts in JSON-lines mode; a first-line handshake
    upgrades it to multiplexed binary-framed service, and its absence
    leaves the connection on blank-line-batch semantics.  ``handle_batch``
    is synchronous and blocks until the engine has answered, so dispatches
    run on the default executor — coalesced per in-flight window, not per
    request — and concurrent connections' tasks meet in the one engine.
    """

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        conn = _Connection(handle_batch, reader, writer, max_frame=max_frame_bytes)
        try:
            await conn.run()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - peer already gone
                pass

    # The stream limit bounds one *line*; binary frames bound themselves via
    # the length prefix, and lines clients get the same generous ceiling.
    return await asyncio.start_server(
        handle, host, port, limit=max_frame_bytes + 1024
    )


class _Connection:
    """One accepted connection: JSON lines, or binary frames after a hello."""

    def __init__(
        self,
        handle_batch: _Handler,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame: int,
    ):
        self.handle_batch = handle_batch
        self.reader = reader
        self.writer = writer
        self.max_frame = max_frame
        #: Framing of server-originated messages; binary once negotiated.
        self._encode = encode_line
        #: Parsed-but-undispatched requests (the in-flight window).
        self._inbox: list = []
        self._inbox_ready = asyncio.Event()
        self._inbox_drained = asyncio.Event()
        self._inbox_drained.set()
        self._eof = False

    # -------------------------------------------------------------- top level
    async def run(self) -> None:
        first = await self._readline()
        if first is None:
            return
        payload = _maybe_json(first)
        if not is_handshake(payload):
            await self._run_lines(first)
            return
        offered = payload.get("frames")
        if not (isinstance(offered, (list, tuple)) and FRAME_BINARY in offered):
            await self._fail_connection(
                f"a handshake must offer the {FRAME_BINARY!r} framing; plain "
                "JSON lines need no handshake"
            )
            return
        self.writer.write(encode_line(server_hello(self.max_frame)))
        await self.writer.drain()
        self._encode = encode_frame
        await self._run_multiplexed()

    # ------------------------------------------------------------- lines mode
    async def _run_lines(self, first_line: str) -> None:
        """The text framing: blank-line batches, ordered responses."""
        loop = asyncio.get_running_loop()
        batch: list = []

        def accept(text: str) -> None:
            try:
                batch.append(json.loads(text))
            except json.JSONDecodeError as exc:
                batch.append(InvalidRequest(f"bad JSON: {exc}"))

        async def flush() -> None:
            if not batch:
                return
            responses = await loop.run_in_executor(
                None, self.handle_batch, list(batch)
            )
            batch.clear()
            for response in responses:
                self.writer.write(encode_line(response))
            await self.writer.drain()

        if first_line:
            accept(first_line)
        while True:
            line = await self._readline()
            if line is None:
                break
            if not line:
                await flush()
                continue
            accept(line)
        await flush()

    # ------------------------------------------------------- multiplexed mode
    async def _run_multiplexed(self) -> None:
        """Binary service: dispatch-as-they-arrive, id-correlated replies."""
        dispatcher = asyncio.ensure_future(self._dispatch_loop())
        try:
            await self._read_loop()
        finally:
            self._eof = True
            self._inbox_ready.set()  # wake the dispatcher for its last drain
            await dispatcher

    async def _read_loop(self) -> None:
        while True:
            if len(self._inbox) >= MAX_PENDING_REQUESTS:
                # Stop consuming the socket until the dispatcher catches up;
                # TCP flow control then pushes back on the sender.
                self._inbox_drained.clear()
                await self._inbox_drained.wait()
                continue
            try:
                body = await read_frame(self.reader, self.max_frame)
                if body is None:
                    return
                request = decode_frame_payload(body)
            except FrameError as exc:
                await self._fail_connection(str(exc))
                return
            self._inbox.append(request)
            self._inbox_ready.set()

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._inbox_ready.wait()
            self._inbox_ready.clear()
            group, self._inbox = self._inbox, []
            self._inbox_drained.set()
            if group:
                try:
                    responses = await loop.run_in_executor(
                        None, self.handle_batch, group
                    )
                except ConnectionError:  # pragma: no cover - peer vanished
                    return
                try:
                    for response in responses:
                        self.writer.write(encode_frame(response))
                    await self.writer.drain()
                except (ConnectionError, RuntimeError):
                    return  # peer went away; nothing left to answer
            if self._eof and not self._inbox:
                return

    async def _fail_connection(self, message: str) -> None:
        """Best-effort ``bad_frame`` notice, then close (frame sync is lost)."""
        self._eof = True
        try:
            # The error travels in the connection's framing: a binary peer
            # reads one last well-formed frame, then EOF.
            self.writer.write(self._encode(_bad_frame_response(message)))
            await self.writer.drain()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass

    # -------------------------------------------------------------- utilities
    async def _readline(self) -> "str | None":
        """One decoded, stripped line; ``None`` on EOF or an over-long line."""
        try:
            line = await self.reader.readline()
        except ValueError:  # line exceeded the stream limit: unrecoverable
            await self._fail_connection("request line exceeds the size limit")
            return None
        if not line:
            return None
        return line.decode(errors="replace").strip()


def _maybe_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


# ------------------------------------------------------------------- client
def order_responses(requests: "list[dict]", responses: "list[dict]") -> "list[dict]":
    """Align multiplexed responses with their requests by envelope ``id``.

    Multiplexed connections only promise id correlation, not ordering.  When
    every request carries a unique, echoed id the responses are returned in
    request order; otherwise (v1 callers without ids, duplicate ids) the
    arrival order is preserved — which the in-order server dispatcher makes
    correct for those callers anyway.
    """
    ids = [
        request.get("id") if isinstance(request, dict) else None
        for request in requests
    ]
    try:
        unique = len(set(ids)) == len(ids) and None not in ids
    except TypeError:  # unhashable id: arrival order
        return responses
    if not unique or len(responses) != len(requests):
        return responses
    by_id: dict = {}
    for response in responses:
        if isinstance(response, dict):
            by_id.setdefault(response.get("id"), response)
    if any(request_id not in by_id for request_id in ids):
        return responses
    return [by_id[request_id] for request_id in ids]


class _SocketReader:
    """Minimal buffered reader over a blocking socket (lines and exact reads).

    ``socket.makefile`` cannot switch between text lines and binary frames
    on one connection; this can.
    """

    def __init__(self, sock: "socket.socket"):
        self._sock = sock
        self._buffer = b""

    def read_line(self) -> "bytes | None":
        """One ``\\n``-terminated line without the terminator; ``None`` on EOF."""
        while b"\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._buffer:
                    line, self._buffer = self._buffer, b""
                    return line
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def read_exactly(self, count: int) -> "bytes | None":
        """Exactly ``count`` bytes; ``None`` on clean EOF at a boundary."""
        while len(self._buffer) < count:
            chunk = self._sock.recv(65536)
            if not chunk:
                if not self._buffer:
                    return None
                raise FrameError(
                    f"torn frame: connection closed {len(self._buffer)} of "
                    f"{count} bytes into a message"
                )
            self._buffer += chunk
        body, self._buffer = self._buffer[:count], self._buffer[count:]
        return body


class WireConnection:
    """One binary-framed client connection, reusable across batches.

    ``open`` performs the connect-time handshake — one hello line out, one
    reply line back — and the same object then carries any number of
    request batches, one at a time (``Client.remote`` keeps idle ones for
    reuse, which is what makes the handshake a one-time cost).
    """

    def __init__(self, sock: "socket.socket", reader: _SocketReader, max_frame: int):
        self._sock = sock
        self._reader = reader
        self.max_frame = max_frame
        self._alive = True

    # ------------------------------------------------------------ life-cycle
    @classmethod
    def open(cls, host: str, port: int, timeout: float = 30.0) -> "WireConnection":
        sock = socket.create_connection((host, port), timeout=timeout)
        try:
            sock.sendall(encode_line(client_hello()))
            reader = _SocketReader(sock)
            line = reader.read_line()
            if line is None:
                raise ConnectionError("connection closed during the handshake")
            reply = _maybe_json(line.decode(errors="replace").strip())
            if not is_handshake(reply) or reply.get("frame") != FRAME_BINARY:
                raise ConnectionError(f"peer refused the handshake: {reply!r}")
        except BaseException:
            sock.close()
            raise
        return cls(sock, reader, int(reply.get("max_frame") or MAX_FRAME_BYTES))

    @property
    def alive(self) -> bool:
        return self._alive

    def close(self) -> None:
        self._alive = False
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown best-effort
            pass

    # --------------------------------------------------------------- batches
    def send_batch(self, requests: "list[dict]") -> "list[dict]":
        """Ship one batch and collect its responses (request order).

        Pipelined, with at most :data:`MAX_IN_FLIGHT` requests unanswered:
        a batch that fits the window is written in one go before anything
        is read; a larger one is topped up as responses come back.
        """
        try:
            return self._send_batch(requests)
        except Exception:
            self._alive = False
            raise

    def _send_batch(self, requests: "list[dict]") -> "list[dict]":
        responses: "list[dict]" = []
        sent = 0
        while len(responses) < len(requests):
            # Refill in half-window chunks, not one frame per response read.
            if sent < len(requests) and sent - len(responses) <= MAX_IN_FLIGHT // 2:
                upto = min(len(requests), len(responses) + MAX_IN_FLIGHT)
                self._sock.sendall(
                    b"".join(encode_frame(r) for r in requests[sent:upto])
                )
                sent = upto
            responses.append(self._read_response())
        return order_responses(requests, responses)

    def _read_response(self) -> dict:
        header = self._reader.read_exactly(_HEADER.size)
        if header is None:
            raise ConnectionError("service closed the connection mid-batch")
        (length,) = _HEADER.unpack(header)
        if length > self.max_frame:
            raise FrameError(
                f"service sent a {length}-byte frame over the "
                f"{self.max_frame}-byte limit"
            )
        body = self._reader.read_exactly(length)
        if body is None:  # pragma: no cover - read_exactly raises instead
            raise ConnectionError("service closed the connection mid-frame")
        payload = decode_frame_payload(body)
        if not isinstance(payload, dict):
            raise FrameError(
                f"service answered a non-object response: {payload!r}"
            )
        return payload
