"""The pipeline wire type and plan-level service execution.

Acceptance contract of the flow subsystem: a multi-stage pipeline
(detect -> impute -> transform) over a datalake table produces identical
outputs through ``Client.local`` and ``Client.remote`` — both for the
stage-by-stage ``Pipeline.run`` path (the executor streams spec batches
through ``submit_many``) and for the plan-level ``Pipeline.submit`` path
(one ``PipelineSpec`` request, executed service-side).

Both services are fresh seed-0 stacks with sequential engines (one worker,
batch size 1): the simulated model's noise stream then advances in exactly
the same order on both sides, making the comparison bit-exact.
"""

import pytest

from repro.api import Client, InvalidRequestError, PipelineSpec
from repro.datalake import Table
from repro.flow import DetectErrors, Filter, Impute, Pipeline, Transform
from repro.serving import build_service

ROWS = [
    {"name": "ada's diner", "city": "rome", "phone": "06-555-0101"},
    {"name": "bob's grill", "city": None, "phone": "06-555-0102"},
    {"name": "bob's grill", "city": None, "phone": "06-555-0102"},
    {"name": "cyd's cafe", "city": "pisa", "phone": "06-555-0103"},
    {"name": "dot's bar", "city": None, "phone": "06-555-0104"},
    {"name": "eve's place", "city": "rome", "phone": "06-555-0105"},
]


def make_table():
    return Table.from_dicts("restaurants", [dict(r) for r in ROWS])


def make_flow(partition_size=3):
    return Pipeline(
        [
            DetectErrors("phone"),
            Impute("city"),
            Transform("phone", examples=[["06-555-0101", "+39 06 555 0101"]],
                      output_column="intl"),
        ],
        partition_size=partition_size,
    )


@pytest.fixture
def remote_port(wire_server):
    """A real TCP service (fresh seed-0 stack, sequential engine)."""
    return wire_server(build_service(seed=0, batch_size=1, workers=1).handle_batch)


# ----------------------------------------------------------------- validation
def test_pipeline_spec_validates_rows_and_stages():
    with pytest.raises(InvalidRequestError):
        PipelineSpec(rows=[], stages=[{"op": "impute", "column": "city"}])
    with pytest.raises(InvalidRequestError) as excinfo:
        PipelineSpec(rows=[{"city": None}], stages=[])
    assert excinfo.value.info.field == "stages"
    with pytest.raises(InvalidRequestError):
        PipelineSpec(rows=[{"city": None}], stages=[{"op": "no_such_op"}])
    with pytest.raises(InvalidRequestError):
        # Static column check runs at validation time: zipcode never exists.
        PipelineSpec(rows=[{"city": None}], stages=[{"op": "impute", "column": "zipcode"}])
    with pytest.raises(InvalidRequestError):
        PipelineSpec(
            rows=[{"city": None}],
            stages=[{"op": "impute", "column": "city"}],
            partition_size=0,
        )


def test_pipeline_spec_round_trips_and_materialises():
    spec = PipelineSpec(
        rows=[{"city": "rome"}, {"city": None}],
        stages=[{"op": "impute", "column": "city"}],
        table_name="cities",
        partition_size=2,
    )
    rebuilt = PipelineSpec.from_request(spec.to_request())
    assert rebuilt == spec
    assert rebuilt.to_table().name == "cities"
    assert [s.op for s in rebuilt.to_pipeline().stages] == ["impute"]


def test_pipeline_spec_is_not_a_single_task():
    spec = PipelineSpec(
        rows=[{"city": None}], stages=[{"op": "impute", "column": "city"}]
    )
    with pytest.raises(InvalidRequestError):
        spec.to_task()


# ------------------------------------------------------- local plan execution
def test_service_executes_a_pipeline_request_locally():
    with Client.local(seed=0, batch_size=1, workers=1) as client:
        result = make_flow().submit(make_table(), client)
    table = result.table
    assert table.schema.names == ["name", "city", "phone", "phone_error", "intl"]
    assert len(table) == len(ROWS)
    assert all(v is not None for v in table.column("city"))
    assert result.report.specs > result.report.submitted  # dedup server-side
    assert result.report.llm_calls > 0 and result.report.llm_tokens > 0


def test_service_reports_pipeline_failures_as_structured_errors():
    with Client.local(seed=0) as client:
        results = client.submit_many(
            [
                PipelineSpec(
                    rows=[{"city": None}],
                    stages=[{"op": "impute", "column": "city"}],
                )
            ]
        )
        assert results[0].ok  # sanity: a good plan succeeds
        # A malformed plan fails at parse time with a field-tagged error.
        response = client.service.handle_request(
            {
                "v": 2,
                "id": 9,
                "task": {
                    "type": "pipeline",
                    "rows": [{"city": None}],
                    "stages": [{"op": "impute", "column": "nope"}],
                },
            }
        )
    assert response["ok"] is False
    assert response["error"]["code"] == "invalid_request"
    assert response["error"]["field"] == "stages"


def test_plan_submission_preserves_schema_of_empty_results():
    # A pipeline that adds a column then filters every row away: the plan
    # response must still carry the output schema, exactly like flow.run.
    flow = Pipeline(
        [
            DetectErrors("phone"),
            Filter("phone", "missing"),  # no phone is missing: keep no rows
        ]
    )
    table = make_table()
    with Client.local(seed=0, batch_size=1, workers=1) as client:
        submitted = flow.submit(table, client)
        ran = flow.run(table, client=client)
    assert len(submitted.table) == len(ran.table) == 0
    assert submitted.table.schema.names == ran.table.schema.names
    assert "phone_error" in submitted.table.schema.names


# ------------------------------------------------------------- remote parity
def test_multi_stage_pipeline_local_and_remote_identical(remote_port):
    local = Client.local(seed=0, batch_size=1, workers=1)
    remote = Client.remote("127.0.0.1", remote_port)
    flow = make_flow()

    local_result = flow.run(make_table(), client=local)
    remote_result = flow.run(make_table(), client=remote)

    assert remote_result.table.to_dicts() == local_result.table.to_dicts()
    assert remote_result.answers == local_result.answers
    assert remote_result.report.specs == local_result.report.specs
    assert remote_result.report.submitted == local_result.report.submitted
    # The acceptance workload really is multi-stage and deduplicated.
    assert [s.op for s in local_result.report.stages] == [
        "detect_errors",
        "impute",
        "transform",
    ]
    assert local_result.report.specs > local_result.report.submitted


def test_plan_level_submission_matches_stage_by_stage(remote_port):
    remote = Client.remote("127.0.0.1", remote_port)
    flow = make_flow()
    submitted = flow.submit(make_table(), remote)
    with Client.local(seed=0, batch_size=1, workers=1) as local:
        ran = flow.run(make_table(), client=local)
    assert submitted.table.to_dicts() == ran.table.to_dicts()
    assert submitted.answers == ran.answers
    assert submitted.report.specs == ran.report.specs
    assert submitted.report.submitted == ran.report.submitted
