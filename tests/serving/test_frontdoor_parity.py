"""The service and the router answer through one front door — checked, not assumed.

Each scenario feeds the same wire batch to a ``ServingService`` and to a
1-worker ``Router`` built with the same tenants and the same admission bound,
and requires identical observable behaviour: response codes in position, the
``requests_served`` delta, the ``<name>.requests`` / ``<name>.admission.*`` /
``tenant.*`` counters, and the kinds (and trace tags) of the events emitted.
The list is the drift the two hand-copied front doors had accumulated.
"""

import threading
import time
from contextlib import contextmanager, nullcontext

import pytest

from repro.api import PipelineSpec, TransformationSpec, encode_request
from repro.cluster.router import Router
from repro.core import UniDM, UniDMConfig
from repro.llm import CachedLLM
from repro.llm.base import LanguageModel
from repro.obs import configure_default_event_log, get_default_registry
from repro.serving.frontdoor import InvalidRequest
from repro.serving.service import ServingService
from repro.tenancy import TenantConfig, TenantRegistry

FULL_CONFIG = UniDMConfig.full(seed=0)
TRACE = "feedfacefeedface"


class GatedLLM(LanguageModel):
    """Prompt-pure backend that can be held closed to keep a batch in flight."""

    name = "gated"

    def __init__(self):
        super().__init__()
        self.open = threading.Event()
        self.open.set()

    def _complete_text(self, prompt: str) -> str:
        assert self.open.wait(10), "gate never reopened"
        return f"w{sum(ord(c) for c in prompt) % 89}"


def tenants() -> TenantRegistry:
    return TenantRegistry(
        [TenantConfig("gold", weight=2.0), TenantConfig("bronze", rate=0.001, burst=1.0)]
    )


class Front:
    """One front end under test plus what the scenarios observe of it."""

    def __init__(self, kind: str):
        self.kind = kind
        self.llm = GatedLLM()
        if kind == "service":
            self.target = ServingService(
                UniDM(CachedLLM(self.llm), FULL_CONFIG), tenants=tenants(), max_queue_depth=1
            )
        else:
            self.target = Router.local(
                1,
                llm_factory=lambda index: self.llm,
                config=FULL_CONFIG,
                tenants=tenants(),
                max_queue_depth=1,
                health_interval=None,
            )

    def close(self) -> None:
        if self.kind == "router":
            self.target.close()

    def counters(self) -> dict:
        """Front-door counters, with the host's metric prefix stripped."""
        prefix = f"{self.kind}."
        return {
            name[len(prefix):] if name.startswith(prefix) else name: value
            for name, value in get_default_registry().snapshot()["counters"].items()
            if name.startswith((f"{prefix}requests", f"{prefix}admission.", "tenant."))
        }


def observe(front: Front, batch: list, log) -> dict:
    """Run one batch and report everything the parity contract covers."""
    log.clear()
    get_default_registry().reset()  # counters below describe this batch only
    served = front.target.requests_served
    responses = front.target.handle_batch(batch)
    return {
        "codes": [
            ("ok" if r["ok"] else r["error"]["code"]) if r["v"] == 2 else "not-v2"
            for r in responses
        ],
        "ids": [r.get("id") for r in responses],
        "tenants": [r.get("tenant") for r in responses],
        "served": front.target.requests_served - served,
        "counters": front.counters(),
        "events": sorted(
            (event["kind"], event.get("trace"))
            for event in log.events()
            if event["kind"] != "span"
        ),
    }


def spec(tag: str) -> TransformationSpec:
    return TransformationSpec(value=f"v-{tag}", examples=[["a", "A"]])


def request(tag: str, request_id, **envelope) -> dict:
    return encode_request(spec(tag), request_id, trace=TRACE, **envelope)


def mixed_batch() -> list:
    """Two tenants, a stats request mid-batch, an unparseable line, a flat
    request without ``"v": 2``, a spec whose ``to_task`` fails, and one tenant
    over its bucket."""
    return [
        request("g1", 1, tenant="gold"),
        InvalidRequest("bad JSON: boom"),
        {"v": 2, "id": 3, "task": {"type": "stats"}, "trace": TRACE},
        request("b1", 4, tenant="bronze"),
        request("b2", 5, tenant="bronze"),
        request("boom", 6, tenant="gold"),
        {"id": 7, "type": "transformation", "value": "x", "examples": [["a", "A"]]},
        {"v": 2, "id": 8, "task": {"type": "no_such_task"}},
    ]


def pipeline_batch() -> list:
    plan = PipelineSpec(
        rows=[{"name": f"s-{i}", "city": None if i % 2 else "rome"} for i in range(6)],
        stages=[{"op": "impute", "column": "city"}],
        partition_size=3,
    )
    return [
        encode_request(plan, "plan", trace=TRACE, tenant="gold"),
        request("after", "t", tenant="gold"),
    ]


@pytest.fixture
def event_log():
    log = configure_default_event_log(capacity=8192)
    yield log
    configure_default_event_log(capacity=8192)


@pytest.fixture
def fronts(monkeypatch):
    build = TransformationSpec.to_task

    def to_task(self):
        if self.value == "v-boom":
            raise ValueError("boom: this spec cannot build its task")
        return build(self)

    monkeypatch.setattr(TransformationSpec, "to_task", to_task)
    pair = [Front("service"), Front("router")]
    yield pair
    for front in pair:
        front.close()


def shed_batch() -> list:
    """Two tenants' work plus a stats request, one envelope untraced."""
    return [
        request("s1", 1, tenant="gold"),
        {"v": 2, "id": 2, "task": {"type": "stats"}},
        encode_request(spec("s2"), 3),
    ]


@contextmanager
def held(front: Front):
    """Keep one admitted batch in flight: ``max_queue_depth=1`` is now full."""
    front.llm.open.clear()
    hold = threading.Thread(
        target=front.target.handle_batch, args=([request("hold", "h")],)
    )
    hold.start()
    try:
        deadline = time.monotonic() + 5.0
        while not front.target.admission.pending and time.monotonic() < deadline:
            time.sleep(0.005)
        assert front.target.admission.pending == 1, "hold batch never admitted"
        yield
    finally:
        front.llm.open.set()
        hold.join(10)
    assert not hold.is_alive()
    assert front.target.admission.pending == 0


#: name -> (batch, expected codes, expected (event kind, trace) pairs,
#: expected admission counters).
SCENARIOS = {
    "mixed": (
        mixed_batch,
        ["ok", "bad_json", "ok", "rate_limited", "rate_limited",
         "invalid_request", "protocol_error", "unknown_task_type"],
        # One shed event for the bronze group, tagged with the group's trace.
        [("tenancy.shed", TRACE)],
        # gold's two (the failing to_task included); the flat one never parses.
        {"admission.admitted": 2, "tenant.bronze.rate_limited": 2},
    ),
    "pipeline": (pipeline_batch, ["ok", "ok"], [], {"admission.admitted": 2}),
    # Global admission is all-or-nothing over the batch's surviving tenant
    # groups (gold + default); stats is answered regardless.  Some envelopes
    # traced, some not, is a mixed batch: the event borrows no one's trace.
    "shed": (
        shed_batch,
        ["overloaded", "ok", "overloaded"],
        [("admission.shed", None)],
        {"admission.shed": 2},
    ),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_service_and_router_answer_a_batch_identically(fronts, event_log, name):
    batch, codes, events, counters = SCENARIOS[name]
    observed = []
    for front in fronts:
        if name == "mixed":  # spend bronze's only token: its next group is shed
            front.target.handle_batch([request("b0", 0, tenant="bronze")])
        with held(front) if name == "shed" else nullcontext():
            observed.append(observe(front, batch(), event_log))
    service, router = observed
    assert service == router
    assert service["codes"] == codes
    assert service["events"] == events
    # The claimed tenant echoes on every answered envelope, sheds included.
    assert service["tenants"] == [
        r.get("tenant") if isinstance(r, dict) else None for r in batch()
    ]
    # Every request handed in counts, unparseable lines too.
    assert service["served"] == service["counters"]["requests"] == len(batch())
    assert counters.items() <= service["counters"].items()
