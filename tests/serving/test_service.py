"""Tests for the JSON service front-end (request building, streams, TCP)."""

import asyncio
import io
import json

import pytest

from repro.core import (
    EntityResolutionTask,
    ErrorDetectionTask,
    ImputationTask,
    InformationExtractionTask,
    JoinDiscoveryTask,
    TableQATask,
    TransformationTask,
)
from repro.api import spec_from_request
from repro.serving import build_service, serve_lines, start_wire_server


def from_request(request):
    """The registry path that replaced the deprecated ``build_task`` shim."""
    return spec_from_request(request).to_task()


def v2(request: dict) -> dict:
    """Wrap task fields (and an optional ``id`` beside them) in a v2 envelope."""
    fields = dict(request)
    return {"v": 2, "id": fields.pop("id", None), "task": fields}


# ------------------------------------------------------------- request parsing
def test_build_transformation_task():
    task = from_request(
        {"type": "transformation", "value": "a", "examples": [["x", "y"]]}
    )
    assert isinstance(task, TransformationTask)


def test_build_imputation_task():
    task = from_request(
        {
            "type": "imputation",
            "rows": [
                {"city": "Florence", "country": "Italy"},
                {"city": "Madrid", "country": "Spain"},
            ],
            "target": {"city": "Milan"},
            "attribute": "country",
        }
    )
    assert isinstance(task, ImputationTask)
    assert task.query() == "Milan, country"


def test_build_extraction_and_table_qa_tasks():
    assert isinstance(
        from_request({"type": "extraction", "document": "doc", "attribute": "name"}),
        InformationExtractionTask,
    )
    assert isinstance(
        from_request(
            {
                "type": "table_qa",
                "rows": [{"player": "Jordan", "team": "Bulls"}],
                "question": "which team?",
            }
        ),
        TableQATask,
    )


def test_build_entity_resolution_error_detection_and_join_tasks():
    # The three task types the PR 1 service rejected as "unknown".
    assert isinstance(
        from_request(
            {"type": "entity_resolution", "record_a": {"name": "a"}, "record_b": {"name": "b"}}
        ),
        EntityResolutionTask,
    )
    assert isinstance(
        from_request(
            {
                "type": "error_detection",
                "rows": [{"city": "Rome", "zip": "00100"}],
                "target": {"city": "Rome", "zip": "xx"},
                "attribute": "zip",
            }
        ),
        ErrorDetectionTask,
    )
    assert isinstance(
        from_request(
            {
                "type": "join_discovery",
                "table_a": {"name": "rank", "rows": [{"abrv": "GER"}]},
                "column_a": "abrv",
                "table_b": {"name": "geo", "rows": [{"iso": "GER"}]},
                "column_b": "iso",
            }
        ),
        JoinDiscoveryTask,
    )


@pytest.mark.parametrize(
    "request_obj",
    [
        {"type": "unknown"},
        {"type": "imputation", "rows": [], "target": {}, "attribute": "x"},
        {"type": "imputation", "rows": [{"a": 1}], "target": "no", "attribute": "a"},
        {"type": "imputation", "rows": [{"a": 1}], "target": {"a": 1}},
        {"type": "imputation", "rows": [{"a": 1}], "target": {}, "attribute": "a", "primary_key": "z"},
        {"type": "transformation", "value": "a", "examples": []},
        # Short/ragged example pairs used to escape as IndexError mid-build.
        {"type": "transformation", "value": "a", "examples": [["x"]]},
        {"type": "entity_resolution", "record_a": {}, "record_b": {"a": 1}},
        {"type": "error_detection", "rows": [{"a": 1}], "target": {}, "attribute": "a"},
        {"type": "join_discovery", "table_a": {"rows": []}, "column_a": "a",
         "table_b": {"rows": [{"b": 1}]}, "column_b": "b"},
    ],
)
def test_build_task_rejects_malformed_requests(request_obj):
    with pytest.raises((ValueError, KeyError)):
        from_request(request_obj)


def test_pipeline_spec_refuses_to_build_a_single_task():
    # A pipeline is a plan of tasks; the service routes it to the flow
    # executor instead of the per-task path.
    with pytest.raises(ValueError):
        from_request(
            {
                "type": "pipeline",
                "rows": [{"city": "Rome", "country": None}],
                "stages": [{"op": "impute", "column": "country"}],
            }
        )


# ------------------------------------------------------------------- batches
@pytest.fixture
def service(tmp_path):
    return build_service(seed=0, cache_dir=str(tmp_path / "cache"), batch_size=4, workers=4)


def test_handle_batch_mixes_good_and_bad_requests(service):
    responses = service.handle_batch(
        [
            v2({
                "id": "t1",
                "type": "transformation",
                "value": "19990415",
                "examples": [["20000101", "2000-01-01"], ["20101231", "2010-12-31"]],
            }),
            v2({"id": "bad", "type": "nope"}),
            v2({"id": "t2", "type": "extraction", "document": "Kevin Durant plays basketball.", "attribute": "player"}),
        ]
    )
    assert [r["id"] for r in responses] == ["t1", "bad", "t2"]
    assert responses[0]["ok"] and responses[0]["result"]["answer"] == "1999-04-15"
    assert responses[0]["result"]["tokens"] > 0 and responses[0]["result"]["calls"] > 0
    assert not responses[1]["ok"] and "nope" in responses[1]["error"]["message"]
    assert responses[2]["ok"]
    assert service.requests_served == 3


def test_underscore_keys_in_requests_are_harmless(service):
    # Client payloads may carry arbitrary extra keys; the bad-JSON marker is
    # out-of-band and must not collide with them.
    response = service.handle_request(
        {
            **v2({"id": 9, "type": "transformation", "value": "x", "examples": [["a", "A"]]}),
            "_invalid": "just a client field",
        }
    )
    assert response["ok"]


def test_concurrent_batches_are_serialized(service):
    from concurrent.futures import ThreadPoolExecutor

    request = v2({"type": "transformation", "value": "x", "examples": [["a", "A"]]})
    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(service.handle_batch, [[request]] * 8))
    assert all(batch[0]["ok"] for batch in outcomes)
    assert service.requests_served == 8


def test_handle_request_single(service):
    response = service.handle_request(
        v2({"type": "transformation", "value": "abc", "examples": [["a", "A"], ["b", "B"]]})
    )
    assert response["ok"]


def test_serve_stream_flushes_on_blank_line_and_eof(service):
    lines = [
        json.dumps(v2({"id": 1, "type": "transformation", "value": "1", "examples": [["1", "one"]]})),
        "",
        "not json at all {",
        json.dumps(v2({"id": 2, "type": "extraction", "document": "d", "attribute": "a"})),
    ]
    out = io.StringIO()
    served = serve_lines(service.handle_batch, io.StringIO("\n".join(lines) + "\n"), out)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert served == 3
    assert [r.get("id") for r in responses] == [1, None, 2]
    assert responses[0]["ok"]
    assert responses[1]["v"] == 2 and responses[1]["error"]["code"] == "bad_json"
    assert "bad JSON" in responses[1]["error"]["message"]
    assert responses[2]["ok"]


def test_serve_stream_reuses_cache_across_batches(service):
    request = json.dumps(
        v2({"id": 1, "type": "transformation", "value": "x", "examples": [["a", "A"]]})
    )
    stream = "\n".join([request, "", request]) + "\n"
    out = io.StringIO()
    serve_lines(service.handle_batch, io.StringIO(stream), out)
    assert service.pipeline.llm.hits > 0  # second batch served from cache


# ----------------------------------------------------------------------- tcp
def test_tcp_round_trip(service):
    async def scenario():
        server = await start_wire_server(service.handle_batch, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            payload = [
                json.dumps(v2({"id": 1, "type": "transformation", "value": "7", "examples": [["1", "one"]]})),
                json.dumps(v2({"id": 2, "type": "bogus"})),
                "",  # flush the batch
            ]
            writer.write(("\n".join(payload) + "\n").encode())
            await writer.drain()
            first = json.loads(await asyncio.wait_for(reader.readline(), 30))
            second = json.loads(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            await writer.wait_closed()
            return first, second

    first, second = asyncio.run(scenario())
    assert first["id"] == 1 and first["ok"]
    assert second["id"] == 2 and not second["ok"]


# ------------------------------------------------------- protocol v2 / coverage
def test_all_seven_task_types_served_over_the_wire(service):
    requests = [
        {"id": "imp", "type": "imputation",
         "rows": [{"city": "Florence", "country": "Italy"}],
         "target": {"city": "Milan"}, "attribute": "country"},
        {"id": "tra", "type": "transformation", "value": "a", "examples": [["x", "X"]]},
        {"id": "ext", "type": "extraction", "document": "doc", "attribute": "name"},
        {"id": "tqa", "type": "table_qa", "rows": [{"p": "Jordan", "t": "Bulls"}],
         "question": "which team?"},
        {"id": "er", "type": "entity_resolution",
         "record_a": {"name": "iphone"}, "record_b": {"name": "iPhone"}},
        {"id": "ed", "type": "error_detection", "rows": [{"a": "1", "b": "2"}],
         "target": {"a": "1", "b": "zz"}, "attribute": "b"},
        {"id": "jd", "type": "join_discovery",
         "table_a": {"name": "t1", "rows": [{"abrv": "GER"}]}, "column_a": "abrv",
         "table_b": {"name": "t2", "rows": [{"iso": "GER"}]}, "column_b": "iso"},
    ]
    responses = service.handle_batch([v2(request) for request in requests])
    assert [r["id"] for r in responses] == ["imp", "tra", "ext", "tqa", "er", "ed", "jd"]
    assert all(r["ok"] for r in responses), responses


def test_v2_envelope_success_and_error_shapes(service):
    ok, bad = service.handle_batch(
        [
            {"v": 2, "id": 1,
             "task": {"type": "transformation", "value": "a", "examples": [["x", "X"]]}},
            {"v": 2, "id": 2, "task": {"type": "transformation", "value": "a",
                                       "examples": [["x"]]}},
        ]
    )
    assert ok["v"] == 2 and ok["ok"] and ok["id"] == 1
    assert set(ok["result"]) == {"answer", "raw", "task_type", "tokens", "calls"}
    assert ok["result"]["task_type"] == "data transformation"
    assert bad["v"] == 2 and not bad["ok"]
    assert bad["error"]["code"] == "invalid_request"
    assert bad["error"]["field"] == "examples"


def test_v2_requires_task_object_and_known_version(service):
    task = {"type": "transformation", "value": "a", "examples": [["x", "X"]]}
    flat = {"id": 3, **task}  # no "v" at all
    missing_task, *bad_versions = service.handle_batch(
        [{"v": 2, "id": 1}, {"v": 3, "id": 2, "task": {"type": "extraction"}}, flat]
        + [{"v": v, "id": 4, "task": task} for v in (1, True, "2", [2], 2.0)]
    )
    assert not missing_task["ok"] and missing_task["error"]["code"] == "protocol_error"
    for bad_version in bad_versions:
        assert bad_version["v"] == 2 and not bad_version["ok"]
        assert bad_version["error"]["code"] == "protocol_error"
        assert bad_version["error"]["field"] == "v"
        assert "version" in bad_version["error"]["message"]
        assert '{"v": 2' in bad_version["error"]["message"]


def test_a_non_finite_priority_is_answered_in_position(service):
    task = {"type": "transformation", "value": "a", "examples": [["x", "X"]]}
    # json.loads("1e400") is inf, which int() refuses with OverflowError: it
    # must be answered in position, not abort the batch.
    responses = service.handle_batch(
        [{"v": 2, "id": p, "task": task, "priority": json.loads(p)} for p in ("1e400", "NaN")]
        + [{"v": 2, "id": "ok", "task": task, "priority": 2.9}]
    )
    assert [r["id"] for r in responses] == ["1e400", "NaN", "ok"]
    for bad in responses[:2]:
        assert bad["error"]["code"] == "protocol_error"
        assert bad["error"]["field"] == "priority"
    assert responses[2]["ok"]
