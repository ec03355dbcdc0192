"""Tests for the typed task specs, their registry and request validation."""

import pytest

from repro.api import (
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ErrorInfo,
    ExtractionSpec,
    ImputationSpec,
    InvalidRequestError,
    JoinDiscoverySpec,
    SPEC_TYPES,
    TableQASpec,
    TaskSpec,
    TransformationSpec,
    ProtocolError,
    UnknownTaskTypeError,
    decode_response,
    spec_from_request,
    task_types,
)
from repro.core import (
    EntityResolutionTask,
    ErrorDetectionTask,
    ImputationTask,
    InformationExtractionTask,
    JoinDiscoveryTask,
    TableQATask,
    TransformationTask,
)

ROWS = [
    {"city": "Florence", "country": "Italy"},
    {"city": "Madrid", "country": "Spain"},
]
JOIN_DISCOVERY = {
    "type": "join_discovery",
    "table_a": {"rows": [{"a": 1}]}, "column_a": "a",
    "table_b": {"rows": [{"b": 2}]}, "column_b": "b",
}


# ---------------------------------------------------------------------- registry
def test_registry_covers_all_seven_task_types_plus_pipeline():
    assert set(task_types()) == {
        "imputation",
        "transformation",
        "extraction",
        "table_qa",
        "entity_resolution",
        "error_detection",
        "join_discovery",
        # The plan-level request type of repro.flow rides the same registry.
        "pipeline",
        # The observability snapshot request of repro.obs does too.
        "stats",
    }
    for spec_cls in SPEC_TYPES.values():
        assert issubclass(spec_cls, TaskSpec)


def test_spec_from_request_dispatches_each_type():
    cases = {
        "imputation": (
            {"rows": ROWS, "target": {"city": "Milan"}, "attribute": "country"},
            ImputationTask,
        ),
        "transformation": ({"value": "a", "examples": [["x", "y"]]}, TransformationTask),
        "extraction": ({"document": "doc", "attribute": "name"}, InformationExtractionTask),
        "table_qa": ({"rows": ROWS, "question": "which?"}, TableQATask),
        "entity_resolution": (
            {"record_a": {"name": "a"}, "record_b": {"name": "b"}},
            EntityResolutionTask,
        ),
        "error_detection": (
            {"rows": ROWS, "target": {"city": "Rome", "country": "xx"}, "attribute": "country"},
            ErrorDetectionTask,
        ),
        "join_discovery": (
            {
                "table_a": {"name": "t1", "rows": [{"abrv": "GER", "rank": 1}]},
                "column_a": "abrv",
                "table_b": {"name": "t2", "rows": [{"iso": "GER"}]},
                "column_b": "iso",
            },
            JoinDiscoveryTask,
        ),
    }
    for task_type, (payload, task_cls) in cases.items():
        spec = spec_from_request({"type": task_type, **payload})
        assert spec.type == task_type
        assert isinstance(spec.to_task(), task_cls)


def test_unknown_task_type_is_structured():
    with pytest.raises(UnknownTaskTypeError) as excinfo:
        spec_from_request({"type": "nope"})
    info = excinfo.value.info
    assert info.code == "unknown_task_type"
    assert info.field == "type"
    assert "nope" in info.message
    # Non-string / absent types must not crash dispatch either.
    with pytest.raises(UnknownTaskTypeError):
        spec_from_request({"type": ["a"]})
    with pytest.raises(UnknownTaskTypeError):
        spec_from_request({})


def test_unknown_type_error_is_a_value_error():
    # Compatibility: pre-redesign callers catch ValueError.
    with pytest.raises(ValueError):
        spec_from_request({"type": "nope"})


# -------------------------------------------------------------------- validation
def test_transformation_rejects_short_example_pairs_cleanly():
    # The PR 1 service crashed with IndexError on [["x"]]; the spec must fail
    # with a structured InvalidRequestError naming the field instead.
    for bad in ([["x"]], [["a", "b", "c"]], ["xy"], [42], "ab", []):
        with pytest.raises(InvalidRequestError) as excinfo:
            TransformationSpec(value="v", examples=bad)
        assert excinfo.value.info.field == "examples"


@pytest.mark.parametrize(
    ("payload", "field"),
    [
        ({"type": "imputation", "rows": [], "target": {}, "attribute": "x"}, "rows"),
        ({"type": "imputation", "rows": "nope", "target": {}, "attribute": "x"}, "rows"),
        ({"type": "imputation", "rows": [{"a": 1}], "target": "no", "attribute": "a"}, "target"),
        ({"type": "imputation", "rows": [{"a": 1}], "target": {}}, "attribute"),
        ({"type": "imputation", "rows": [{"a": 1}], "target": {}, "attribute": "zz"}, "attribute"),
        (
            {"type": "imputation", "rows": [{"a": 1}], "target": {}, "attribute": "a",
             "primary_key": "z"},
            "primary_key",
        ),
        ({"type": "imputation", "rows": [{"a": 1}, {"b": 2}], "target": {}, "attribute": "a"}, "rows"),
        ({"type": "transformation", "value": "a", "examples": []}, "examples"),
        ({"type": "extraction", "document": "d", "attribute": "  "}, "attribute"),
        ({"type": "table_qa", "rows": [{"a": 1}], "question": " "}, "question"),
        ({"type": "entity_resolution", "record_a": {}, "record_b": {"x": 1}}, "record_a"),
        ({"type": "entity_resolution", "record_a": {"x": 1}, "record_b": []}, "record_b"),
        (
            {"type": "entity_resolution", "record_a": {"x": 1}, "record_b": {"y": 2},
             "attributes": ["x"]},
            "attributes",
        ),
        (
            {"type": "error_detection", "rows": [{"a": 1}], "target": {}, "attribute": "a"},
            "target",
        ),
        (
            {"type": "error_detection", "rows": [{"a": 1}], "target": {"a": 1},
             "attribute": "b"},
            "attribute",
        ),
        (
            {"type": "join_discovery", "table_a": {"rows": [{"a": 1}]}, "column_a": "zz",
             "table_b": {"rows": [{"b": 2}]}, "column_b": "b"},
            "column_a",
        ),
        (
            {"type": "join_discovery", "table_a": [], "column_a": "a",
             "table_b": {"rows": [{"b": 2}]}, "column_b": "b"},
            "table_a",
        ),
        # Fields the engine would choke on mid-batch are refused at parse.
        ({**JOIN_DISCOVERY, "seed": -1}, "seed"),
        ({**JOIN_DISCOVERY, "seed": 1.5}, "seed"),
        ({**JOIN_DISCOVERY, "seed": "7"}, "seed"),
        ({**JOIN_DISCOVERY, "n_sample_values": 1.5}, "n_sample_values"),
        ({**JOIN_DISCOVERY, "n_sample_values": "3"}, "n_sample_values"),
        ({**JOIN_DISCOVERY, "n_sample_records": -1}, "n_sample_records"),
        ({**JOIN_DISCOVERY, "n_sample_records": True}, "n_sample_records"),
        (
            {"type": "pipeline", "rows": [{"city": "rome"}],
             "stages": [{"op": "join", "other": [{"town": "rome"}], "on": "city",
                         "other_on": "town", "seed": -1}]},
            "stages",
        ),
    ],
)
def test_invalid_requests_name_the_offending_field(payload, field):
    with pytest.raises(InvalidRequestError) as excinfo:
        spec_from_request(payload)
    assert excinfo.value.info.field == field


def test_missing_required_field_is_reported():
    with pytest.raises(InvalidRequestError) as excinfo:
        spec_from_request({"type": "imputation", "target": {}, "attribute": "a"})
    assert excinfo.value.info.field == "rows"


def test_v1_optional_fields_keep_their_defaults():
    # PR 1's build_task defaulted these via request.get(..., ""); a v2 spec
    # must keep accepting such requests.
    spec = spec_from_request({"type": "transformation", "examples": [["a", "b"]]})
    assert spec.to_task().source == ""
    spec = spec_from_request({"type": "extraction", "attribute": "name"})
    assert spec.to_task().document == ""


def test_sparse_and_reordered_rows_are_accepted():
    # v1 compatibility: the first row defines the columns; later rows may
    # omit cells (missing -> None) or order their keys differently.
    spec = ImputationSpec(
        rows=[
            {"city": "Florence", "country": "Italy"},
            {"country": "Norway", "city": "Oslo"},
            {"city": "Aarhus"},
        ],
        target={"city": "Milan"},
        attribute="country",
    )
    table = spec.to_task().table()
    assert table[1]["country"] == "Norway"
    assert table[2]["country"] is None


def test_rows_with_unknown_extra_columns_are_rejected():
    with pytest.raises(InvalidRequestError) as excinfo:
        ImputationSpec(
            rows=[{"city": "Rome"}, {"city": "Oslo", "rogue": 1}],
            target={},
            attribute="city",
        )
    assert excinfo.value.info.field == "rows"
    assert "rogue" in excinfo.value.info.message


def test_envelope_and_unknown_keys_are_ignored():
    spec = spec_from_request(
        {"type": "extraction", "document": "d", "attribute": "a",
         "id": 7, "client_tag": "anything"}
    )
    assert spec == ExtractionSpec(document="d", attribute="a")


# ------------------------------------------------------------------ materialising
def test_imputation_spec_builds_equivalent_task():
    spec = ImputationSpec(rows=ROWS, target={"city": "Milan"}, attribute="country")
    task = spec.to_task()
    assert task.query() == "Milan, country"
    assert task.table().schema.primary_key().name == "city"


def test_error_detection_spec_builds_task_with_value():
    spec = ErrorDetectionSpec(
        rows=ROWS, target={"city": "Rome", "country": "xx"}, attribute="country"
    )
    task = spec.to_task()
    assert task.value == "xx"
    assert task.query() == "country: xx?"


def test_entity_resolution_spec_respects_attribute_subset():
    spec = EntityResolutionSpec(
        record_a={"name": "iphone", "brand": "apple"},
        record_b={"name": "iPhone", "brand": "Apple"},
        attributes=["name"],
    )
    task = spec.to_task()
    assert task.target_attributes() == ["name"]
    assert "brand" not in task.describe_a()


def test_join_discovery_spec_is_deterministic():
    spec = JoinDiscoverySpec(
        table_a={"name": "rank", "rows": [{"abrv": "GER", "team": "Germany"}]},
        column_a="abrv",
        table_b={"name": "geo", "rows": [{"iso": "GER", "continent": "Europe"}]},
        column_b="iso",
        seed=3,
    )
    assert spec.to_task().context_rows() == spec.to_task().context_rows()
    assert spec.to_task().query() == "rank.abrv VERSUS geo.iso"


def test_table_qa_spec_defaults_table_name():
    task = TableQASpec(rows=ROWS, question="which country?").to_task()
    assert task.table().name == "request"


# ----------------------------------------------------------------------- errors
def test_error_info_payload_round_trip():
    info = ErrorInfo(code="invalid_request", message="bad", field="examples")
    assert ErrorInfo.from_payload(info.to_payload()) == info
    assert ErrorInfo.from_payload("bare string").message == "bare string"
    assert ErrorInfo.from_payload(None).code == "error"


@pytest.mark.parametrize(
    "response",
    [
        "not an object",
        {"v": 2, "id": 1, "ok": True, "result": None},
        {"v": 2, "id": 1, "ok": True, "result": [1]},
        {"v": 2, "id": 1, "ok": True},
        {"v": 2, "id": 1, "ok": True, "result": {"answer": "a", "tokens": "x"}},
        {"v": 2, "id": 1, "ok": True, "result": {"answer": "a", "calls": float("inf")}},
        {"v": 2, "id": 1, "ok": False, "error": {"code": "overloaded", "retry_after": "soon"}},
    ],
)
def test_a_malformed_response_raises_a_protocol_error(response):
    with pytest.raises(ProtocolError):
        decode_response(response)
