"""Integration: Client.remote against an in-process TCP service.

The acceptance contract of the API redesign: for the same seed and the same
spec, ``Client.local(...)`` and ``Client.remote(...)`` return identical
answers across **all seven** task types — the spec, not the transport, is
the request.
"""

import asyncio
import threading

import pytest

from repro.api import Client, TransformationSpec, TransportError
from repro.serving import build_service, start_wire_server


@pytest.fixture
def remote_port():
    """A real TCP service (fresh seed-0 stack) running on a background loop."""
    service = build_service(seed=0, batch_size=4, workers=4)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    holder = {}

    def run() -> None:
        asyncio.set_event_loop(loop)
        server = loop.run_until_complete(start_wire_server(service.handle_batch, "127.0.0.1", 0))
        holder["port"] = server.sockets[0].getsockname()[1]
        ready.set()
        loop.run_forever()
        server.close()
        loop.run_until_complete(server.wait_closed())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "TCP service did not start"
    yield holder["port"]
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


def test_local_and_remote_agree_on_all_seven_task_types(remote_port, all_seven):
    local = Client.local(seed=0, batch_size=4, workers=4)
    remote = Client.remote("127.0.0.1", remote_port)
    for spec in all_seven:
        local_result = local.submit(spec)
        remote_result = remote.submit(spec)
        assert remote_result.answer == local_result.answer, type(spec).__name__
        assert remote_result.task_type == local_result.task_type
        assert remote_result.tokens == local_result.tokens
        assert remote_result.calls == local_result.calls
        assert remote_result.ok and local_result.ok


def test_remote_submit_many_and_async(remote_port):
    remote = Client.remote("127.0.0.1", remote_port)
    specs = [
        TransformationSpec(value="a", examples=[["x", "X"]]),
        TransformationSpec(value="b", examples=[["x", "X"]]),
    ]
    sync_results = remote.submit_many(specs)
    async_results = asyncio.run(remote.asubmit_many(specs))
    assert [r.ok for r in sync_results] == [True, True]
    # Both batches hit a warmed same-prompt cache, so answers agree.
    assert [r.answer for r in async_results] == [r.answer for r in sync_results]


def test_remote_errors_are_structured(remote_port):
    remote = Client.remote("127.0.0.1", remote_port)

    class Hostile(TransformationSpec):
        def to_request(self):
            return {"type": "transformation", "value": "x", "examples": [["only-one"]]}

    results = remote.submit_many([Hostile(value="x", examples=[["a", "b"]])])
    assert not results[0].ok
    assert results[0].error.code == "invalid_request"
    assert results[0].error.field == "examples"


def test_unreachable_service_raises_transport_error():
    client = Client.remote("127.0.0.1", 1, timeout=0.5)
    with pytest.raises(TransportError):
        client.submit(TransformationSpec(value="x", examples=[["a", "b"]]))
