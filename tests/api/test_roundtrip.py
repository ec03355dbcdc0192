"""Property-based round-trip tests: ``from_request(to_request(spec))``.

For every registered :class:`~repro.api.specs.TaskSpec`, a spec serialized to
its wire payload — including a full JSON encode/decode, as the service would
see it — must deserialize back to an equal spec that materialises an
equivalent pipeline task (same type, same target query).  Envelope encoding
is exercised for both protocol generations.
"""

import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ExtractionSpec,
    ImputationSpec,
    JoinDiscoverySpec,
    PipelineSpec,
    SPEC_TYPES,
    StatsSpec,
    TableQASpec,
    TransformationSpec,
    encode_request,
    parse_request,
    spec_from_request,
)

SETTINGS = settings(max_examples=30, deadline=None)

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
cell_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-999, 999),
    st.text(alphabet=string.ascii_letters + " .-'", max_size=10),
)
texts = st.text(alphabet=string.ascii_letters + string.digits + " .-", max_size=16)


@st.composite
def tables(draw, max_cols=4, max_rows=4):
    """Column names plus rows (the wire form of a table).

    The first row carries every column; later rows may be sparse (missing
    cells omitted), matching the v1 service contract.
    """
    cols = draw(st.lists(names, unique=True, min_size=1, max_size=max_cols))
    rows = [{c: draw(cell_values) for c in cols}]
    for _ in range(draw(st.integers(0, max_rows - 1))):
        present = draw(st.lists(st.sampled_from(cols), unique=True))
        rows.append({c: draw(cell_values) for c in present})
    return cols, rows


@st.composite
def imputation_specs(draw):
    cols, rows = draw(tables())
    return ImputationSpec(
        rows=rows,
        target={c: draw(cell_values) for c in draw(st.lists(st.sampled_from(cols), unique=True))},
        attribute=draw(st.sampled_from(cols)),
        table_name=draw(names),
        primary_key=draw(st.none() | st.sampled_from(cols)),
    )


@st.composite
def transformation_specs(draw):
    return TransformationSpec(
        value=draw(texts),
        examples=draw(st.lists(st.lists(texts, min_size=2, max_size=2), min_size=1, max_size=4)),
    )


@st.composite
def extraction_specs(draw):
    return ExtractionSpec(
        document=draw(texts),
        attribute=draw(names),
        max_chunk_chars=draw(st.integers(1, 4000)),
    )


@st.composite
def table_qa_specs(draw):
    _, rows = draw(tables())
    return TableQASpec(rows=rows, question=draw(names), table_name=draw(names))


@st.composite
def entity_resolution_specs(draw):
    cols = draw(st.lists(names, unique=True, min_size=1, max_size=4))
    return EntityResolutionSpec(
        record_a={c: draw(cell_values) for c in cols},
        record_b={c: draw(cell_values) for c in cols},
        attributes=draw(
            st.none() | st.lists(st.sampled_from(cols), unique=True, min_size=1)
        ),
    )


@st.composite
def error_detection_specs(draw):
    cols, rows = draw(tables())
    attribute = draw(st.sampled_from(cols))
    return ErrorDetectionSpec(
        rows=rows,
        target={attribute: draw(cell_values)},
        attribute=attribute,
        primary_key=draw(st.none() | st.sampled_from(cols)),
    )


@st.composite
def join_discovery_specs(draw):
    cols_a, rows_a = draw(tables(max_cols=3, max_rows=3))
    cols_b, rows_b = draw(tables(max_cols=3, max_rows=3))
    return JoinDiscoverySpec(
        table_a={"name": draw(names), "rows": rows_a},
        column_a=draw(st.sampled_from(cols_a)),
        table_b={"name": draw(names), "rows": rows_b},
        column_b=draw(st.sampled_from(cols_b)),
        n_sample_values=draw(st.integers(1, 6)),
        n_sample_records=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 99)),
    )


@st.composite
def pipeline_specs(draw):
    cols, rows = draw(tables())
    column = draw(st.sampled_from(cols))
    stages = [{"op": "impute", "column": column}]
    if draw(st.booleans()):
        stages.append({"op": "detect_errors", "column": column})
    if draw(st.booleans()):
        stages.append({"op": "select", "columns": list(cols)})
    return PipelineSpec(
        rows=rows,
        stages=stages,
        table_name=draw(names),
        primary_key=draw(st.none() | st.sampled_from(cols)),
        partition_size=draw(st.none() | st.integers(1, 4)),
    )


def stats_specs():
    return st.builds(
        StatsSpec,
        prefix=st.text(string.ascii_lowercase + ".", max_size=12),
    )


ALL_SPEC_STRATEGIES = [
    imputation_specs(),
    transformation_specs(),
    extraction_specs(),
    table_qa_specs(),
    entity_resolution_specs(),
    error_detection_specs(),
    join_discovery_specs(),
    pipeline_specs(),
    stats_specs(),
]


def _assert_round_trip(spec):
    # Through the registry, with a real JSON encode/decode in the middle.
    payload = json.loads(json.dumps(spec.to_request()))
    rebuilt = spec_from_request(payload)
    assert rebuilt == spec
    if isinstance(spec, PipelineSpec):
        # A pipeline materialises a flow plan rather than a single task.
        assert rebuilt.to_pipeline().to_payload() == spec.to_pipeline().to_payload()
        return
    if isinstance(spec, StatsSpec):
        # A stats request is answered by the front-end, never materialised.
        with pytest.raises(ValueError):
            rebuilt.to_task()
        return
    # The rebuilt spec materialises an equivalent pipeline task.
    original_task, rebuilt_task = spec.to_task(), rebuilt.to_task()
    assert type(rebuilt_task) is type(original_task)
    assert rebuilt_task.query() == original_task.query()


@pytest.mark.parametrize("strategy", ALL_SPEC_STRATEGIES, ids=lambda s: "spec")
@SETTINGS
@given(data=st.data())
def test_round_trip_reproduces_an_equivalent_task(strategy, data):
    _assert_round_trip(data.draw(strategy))


@SETTINGS
@given(data=st.data(), request_id=st.integers(0, 999))
def test_envelope_round_trip_both_generations(data, request_id):
    spec = data.draw(st.one_of(ALL_SPEC_STRATEGIES))
    wire = json.loads(json.dumps(encode_request(spec, request_id)))
    assert wire["v"] == 2
    parsed = parse_request(wire)
    assert parsed.spec == spec
    assert parsed.id == request_id


def test_every_registered_type_has_a_strategy():
    # Guard against a new spec type landing without round-trip coverage: one
    # strategy per registered wire type, no more, no less.
    assert len(ALL_SPEC_STRATEGIES) == len(SPEC_TYPES)
