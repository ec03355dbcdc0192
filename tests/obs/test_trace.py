"""Tests for trace ids: context propagation and wire-envelope round trips."""

import asyncio
import json
import threading

from repro.api import TransformationSpec, encode_request, parse_request
from repro.api.protocol import decode_response, encode_error, encode_success
from repro.api.errors import ErrorInfo
from repro.api.results import TaskResult
from repro.obs import Trace, new_trace_id

SPEC = TransformationSpec(value="19990415", examples=[["20000101", "2000-01-01"]])


# ------------------------------------------------------------------- contexts
def test_trace_ids_are_unique_hex():
    ids = {new_trace_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)


def test_trace_context_binds_and_unbinds():
    assert Trace.current_id() is None
    with Trace.start() as outer:
        assert Trace.current_id() == outer.trace_id
        with Trace.start("deadbeefdeadbeef") as inner:
            assert Trace.current_id() == inner.trace_id == "deadbeefdeadbeef"
        assert Trace.current_id() == outer.trace_id
    assert Trace.current_id() is None


def test_trace_context_is_isolated_between_threads():
    seen = {}

    def worker():
        seen["in_thread"] = Trace.current_id()

    with Trace.start():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["in_thread"] is None


def test_trace_context_propagates_through_asyncio_tasks():
    async def child():
        return Trace.current_id()

    async def main():
        with Trace.start() as trace:
            inside = await asyncio.create_task(child())
            return trace.trace_id, inside

    trace_id, inside = asyncio.run(main())
    assert inside == trace_id


# ------------------------------------------------------------------ envelopes
def test_encode_request_stamps_the_active_trace_id():
    with Trace.start() as trace:
        wire = encode_request(SPEC, request_id=1)
    assert wire["trace"] == trace.trace_id
    parsed = parse_request(json.loads(json.dumps(wire)))
    assert parsed.trace == trace.trace_id


def test_encode_request_without_context_has_no_trace_key():
    wire = encode_request(SPEC, request_id=1)
    assert "trace" not in wire
    assert parse_request(wire).trace is None


def test_priority_round_trips_through_the_envelope():
    wire = encode_request(SPEC, request_id=1, priority=5)
    assert wire["priority"] == 5
    assert parse_request(wire).priority == 5
    assert parse_request(encode_request(SPEC, request_id=1)).priority == 0


def test_responses_echo_the_trace_and_decode_surfaces_it():
    result = TaskResult(answer="x", task_type="transformation")
    ok = encode_success(result, request_id=1, trace="aa" * 8)
    assert ok["trace"] == "aa" * 8
    assert decode_response(ok).trace_id == "aa" * 8

    err = encode_error(
        ErrorInfo(code="overloaded", message="m", retry_after=0.5),
        request_id=2,
        trace="bb" * 8,
    )
    decoded = decode_response(err)
    assert decoded.trace_id == "bb" * 8
    assert decoded.error.code == "overloaded"
    assert decoded.error.retry_after == 0.5


# ------------------------------------------------------------------ end to end
def test_router_forwards_a_batch_trace_to_its_workers():
    from repro.cluster.router import Router
    from repro.cluster.workers import Worker

    class RecordingWorker(Worker):
        """An in-process worker: it reads the batch's trace from context."""

        def __init__(self, worker_id):
            self.worker_id = worker_id
            self.seen = []

        def submit(self, specs, priority=0, **kwargs):
            self.seen.append(Trace.current_id())
            return [TaskResult(answer="x", task_type="transformation") for _ in specs]

        def ping(self):
            return True

    worker = RecordingWorker("w0")
    with Router(workers=[worker]) as router:
        wire = encode_request(SPEC, request_id=1, trace="ab" * 8)
        response = router.handle_batch([wire])[0]
    assert response["trace"] == "ab" * 8  # echoed to the caller...
    assert worker.seen == ["ab" * 8]  # ...and bound around the worker's submit

    # A spawned worker is the one whose specs leave the process: the trace
    # rides its envelopes.
    sent = []
    with Router.spawn(1, health_interval=None) as router:
        (spawned,) = router.workers.values()
        transport = spawned._transport()
        send = transport.send

        def recording_send(requests):
            sent.extend(requests)
            return send(requests)

        transport.send = recording_send
        response = router.handle_batch([wire])[0]
    assert response["ok"] and response["trace"] == "ab" * 8
    assert [request["trace"] for request in sent] == ["ab" * 8]


def test_local_client_echoes_one_trace_id_per_batch_context():
    from repro.api import Client

    with Client.local(seed=0) as client:
        with Trace.start() as trace:
            results = client.submit_many([SPEC, SPEC])
        assert all(r.trace_id == trace.trace_id for r in results)
        # Outside a context every request gets its own fresh id.
        results = client.submit_many([SPEC, SPEC])
        ids = {r.trace_id for r in results}
        assert None not in ids and len(ids) == 2


def test_asubmit_many_runs_inside_the_callers_trace():
    """``asubmit_many`` runs ``submit_many`` on an executor thread; the bound
    trace and span parent reach it through a copy of the caller's context."""
    import asyncio

    from repro.api import Client
    from repro.obs import configure_default_event_log

    log = configure_default_event_log(capacity=4096)
    try:
        with Client.local(seed=0) as client:
            with Trace.start() as trace:
                results = asyncio.run(client.asubmit_many([SPEC, SPEC]))
            assert [r.trace_id for r in results] == [trace.trace_id] * 2
            submits = [
                event
                for event in log.events(kind="span")
                if event["name"] == "client.submit"
            ]
            assert [event["trace"] for event in submits] == [trace.trace_id]
    finally:
        configure_default_event_log(capacity=8192)
