"""Property: a front door answers any decoded-JSON batch, in order, in v2.

Whatever a peer sends — a flat request, a ``v`` that is not the integer 2, a
non-finite priority, a non-string tenant, a task that is not an object, a
spec field the engine would choke on, a line that never parsed — both hosts
(a service and a two-worker router) answer every request in position with a
v2 envelope echoing its id, and never raise out of ``handle_batch``.  A
valid envelope beside hostile ones is still served.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from test_flow_properties import PromptPureLLM

from repro.cluster import Router
from repro.serving import build_service
from repro.serving.frontdoor import InvalidRequest

SETTINGS = settings(max_examples=30, deadline=None)

TASK = {"type": "transformation", "value": "x", "examples": [["a", "A"]]}
JOIN_DISCOVERY = {
    "type": "join_discovery",
    "table_a": {"name": "t1", "rows": [{"abrv": "GER"}]},
    "column_a": "abrv",
    "table_b": {"name": "t2", "rows": [{"iso": "GER"}]},
    "column_b": "iso",
}
JOIN_STAGE = {"op": "join", "other": [{"town": "rome"}], "on": "city", "other_on": "town"}
MISSING = object()  # the key is absent from the envelope
UNPARSED = object()  # the line never parsed: an InvalidRequest marker
BAD_NUMBERS = st.sampled_from([-1, 1.5, "7", None, True, math.inf, math.nan])


def pipeline(stage: dict, **fields) -> dict:
    rows = [{"city": "rome"}, {"city": None}]
    return {"type": "pipeline", "rows": rows, "stages": [stage], **fields}


bad_tasks = st.one_of(
    st.sampled_from(["x", [1], None, 3]),
    st.builds(
        lambda name, value: {**JOIN_DISCOVERY, name: value},
        st.sampled_from(["seed", "n_sample_values", "n_sample_records"]),
        BAD_NUMBERS,
    ),
    st.builds(
        lambda name, value: pipeline({**JOIN_STAGE, name: value}),
        st.sampled_from(["seed", "n_sample_values", "n_sample_records", "n_probe_rows"]),
        BAD_NUMBERS,
    ),
    st.builds(lambda value: {**TASK, "type": "extraction", "max_chunk_chars": value}, BAD_NUMBERS),
    st.builds(lambda value: pipeline({"op": "impute", "column": "city"}, partition_size=value),
              st.sampled_from([-1, 0, 1.5, "7", math.inf])),
)

#: Departures a valid envelope survives: a string priority is ignored and a
#: finite one truncated.
HARMLESS = [{}, {"priority": "high"}, {"priority": 3.7}]

#: One request's departure from a valid envelope.
changes = st.one_of(
    st.sampled_from(HARMLESS),
    st.just(UNPARSED),
    st.sampled_from([MISSING, 1, True, "2", [2]]).map(lambda v: {"v": v}),
    st.sampled_from([math.inf, -math.inf, math.nan]).map(lambda p: {"priority": p}),
    st.sampled_from([5, ["gold"], {"name": "gold"}, True]).map(lambda t: {"tenant": t}),
    bad_tasks.map(lambda task: {"task": task}),
)


def request(position: int, change):
    if change is UNPARSED:
        return InvalidRequest("bad JSON: Expecting value")
    envelope = {"v": 2, "id": position, "task": dict(TASK)}
    for key, value in change.items():
        if value is MISSING:
            del envelope[key]
        else:
            envelope[key] = value
    return envelope


@pytest.fixture(scope="module")
def hosts():
    service = build_service(llm=PromptPureLLM(), batch_size=4, workers=2)
    router = Router.local(2, llm_factory=lambda i: PromptPureLLM(), health_interval=None)
    yield [service, router]
    service.close()
    router.close()


@SETTINGS
@given(batch=st.lists(changes, min_size=1, max_size=6))
def test_a_front_door_never_raises_on_decoded_json(hosts, batch):
    wire = [request(position, change) for position, change in enumerate(batch)]
    for host in hosts:
        responses = host.handle_batch(wire)
        assert len(responses) == len(wire)
        for position, (change, response) in enumerate(zip(batch, responses)):
            assert response["v"] == 2
            assert response["id"] == (None if change is UNPARSED else position)
            assert response["ok"] is (change in HARMLESS), response
            if not response["ok"]:
                assert isinstance(response["error"]["code"], str)
                assert isinstance(response["error"]["message"], str)
