"""Property: a result is a function of its spec, not of its place in line.

A mixed seven-type spec list is permuted and cut into consecutive
``submit_many`` batches, on a cold stack each time (no pre-warmed cache), at
the paper's full configuration — retrieval sampling on.  Whatever the order,
the cut, the engine shape or the number of cluster workers, every spec must
come back exactly as a fresh ``UniDM.run(spec.to_task())`` answers it alone,
the backends must have been asked exactly the prompts those lone runs issue,
and submitting the whole list again must not reach a backend at all.  Nor
does it matter who else is calling: slices of the list submitted from several
threads at once meet in the one engine and still answer as alone.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st
from test_flow_properties import PromptPureLLM

from repro.api import (
    Client,
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ExtractionSpec,
    ImputationSpec,
    JoinDiscoverySpec,
    TableQASpec,
    TransformationSpec,
)
from repro.core import UniDM, UniDMConfig
from repro.llm import CachedLLM
from repro.obs import MetricsRegistry
from repro.serving import EngineConfig, ExecutionEngine

FULL_CONFIG = UniDMConfig.full(seed=0)

#: Enough rows that the candidate pool and its order are a real draw.
ROWS = [
    {"city": f"city-{i}", "country": f"country-{i % 4}", "zip": f"{10000 + 7 * i}"}
    for i in range(12)
]


class RecordingLLM(PromptPureLLM):
    """Prompt-pure backend that remembers every prompt that reached it."""

    def __init__(self):
        super().__init__()
        self.prompts: list[str] = []

    def _complete_text(self, prompt: str) -> str:
        self.prompts.append(prompt)
        return super()._complete_text(prompt)


def make_specs() -> list:
    specs: list = []
    for i in (3, 8):
        specs += [
            ImputationSpec(
                rows=ROWS, target={"city": ROWS[i]["city"]}, attribute="country"
            ),
            ErrorDetectionSpec(rows=ROWS, target=ROWS[i], attribute="zip"),
            TableQASpec(rows=ROWS, question=f"which country is city-{i} in?"),
            TransformationSpec(
                value=f"199904{10 + i}", examples=[["20000101", "2000-01-01"]]
            ),
            ExtractionSpec(document=f"city-{i} hosted the final.", attribute="city"),
            EntityResolutionSpec(
                record_a={"name": f"item {i}", "brand": "apple"},
                record_b={"name": f"Item {i}", "brand": "Apple"},
            ),
            JoinDiscoverySpec(
                table_a={"name": "rank", "rows": [{"abrv": f"C{i}", "rank": 1}]},
                column_a="abrv",
                table_b={"name": "geo", "rows": [{"ISO": f"C{i}", "area": "EU"}]},
                column_b="ISO",
            ),
        ]
    return specs


SPECS = make_specs()


def run_alone(spec):
    """What one spec gives on a fresh pipeline, and the prompts it issued."""
    llm = RecordingLLM()
    result = UniDM(llm, FULL_CONFIG).run(spec.to_task())
    fingerprint = (
        result.value,
        result.raw_answer,
        result.usage.calls,
        result.total_tokens,
    )
    assert llm.prompts[-1] == result.trace.target_prompt
    return fingerprint, set(llm.prompts)


ALONE = [run_alone(spec) for spec in SPECS]


def local_stack(batch_size: int, workers: int):
    backend = RecordingLLM()
    client = Client.local(
        llm=CachedLLM(backend),
        config=FULL_CONFIG,
        batch_size=batch_size,
        workers=workers,
    )
    return client, [backend]


def cluster_stack(n_workers: int):
    backends: list[RecordingLLM] = []

    def llm_factory(index: int) -> RecordingLLM:
        backends.append(RecordingLLM())
        return backends[-1]

    client = Client.cluster(
        workers=n_workers, llm_factory=llm_factory, config=FULL_CONFIG
    )
    return client, backends


STACKS = {
    "engine-1x1": lambda: local_stack(1, 1),
    "engine-8x8": lambda: local_stack(8, 8),
    # Batches smaller than the cohort: cut mid-way across prompt kinds.
    "engine-3x8": lambda: local_stack(3, 8),
    "cluster-1": lambda: cluster_stack(1),
    "cluster-2": lambda: cluster_stack(2),
    "cluster-4": lambda: cluster_stack(4),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
@settings(max_examples=8, deadline=None)
@given(
    order=st.permutations(range(len(SPECS))),
    cuts=st.sets(st.integers(1, len(SPECS) - 1), max_size=4),
)
def test_each_spec_answers_as_it_would_alone(stack, order, cuts):
    bounds = [0, *sorted(cuts), len(order)]
    batches = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    client, backends = STACKS[stack]()
    with client:
        for batch in batches:
            results = client.submit_many([SPECS[i] for i in batch])
            for i, result in zip(batch, results):
                assert result.error is None
                assert (
                    result.answer,
                    result.raw,
                    result.calls,
                    result.tokens,
                ) == ALONE[i][0], (stack, i)

        # Target prompts included: the backends saw the lone runs' prompts,
        # nothing else.
        seen = {prompt for backend in backends for prompt in backend.prompts}
        assert seen == set().union(*(prompts for _, prompts in ALONE))

        calls = sum(backend.usage.calls for backend in backends)
        again = client.submit_many([SPECS[i] for i in order])
        assert [r.answer for r in again] == [ALONE[i][0][0] for i in order]
        assert sum(backend.usage.calls for backend in backends) == calls


class MeetingLLM(RecordingLLM):
    """Holds its first round trip until every spec's first prompt has been
    submitted — which can only happen if all callers are inside the one engine,
    with all their tasks admitted, at the same time."""

    def __init__(self, registry: MetricsRegistry, expected: int):
        super().__init__()
        self._registry = registry
        self._expected = expected
        self.met = False

    def complete_batch(self, prompts, kind="other"):
        deadline = time.monotonic() + 10.0
        while not self.met and time.monotonic() < deadline:
            submitted = self._registry.snapshot()["counters"].get("batcher.requests", 0)
            self.met = submitted >= self._expected
            time.sleep(0.001)
        assert self.met, "the callers never met in one batcher"
        return super().complete_batch(prompts, kind=kind)


@settings(max_examples=8, deadline=None)
@given(
    order=st.permutations(range(len(SPECS))),
    cuts=st.sets(st.integers(1, len(SPECS) - 1), min_size=1, max_size=3),
)
def test_concurrent_callers_each_get_the_lone_run_answer(order, cuts):
    """The spec list cut into 2–4 slices, each submitted from its own thread
    to one service: same answers as alone, each distinct prompt asked once."""
    bounds = [0, *sorted(cuts), len(order)]
    slices = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    registry = MetricsRegistry()
    backend = MeetingLLM(registry, expected=len(SPECS))
    # A slot for every spec, so every first prompt is submitted up front.
    engine = ExecutionEngine(
        EngineConfig(max_batch_size=8, workers=len(SPECS)), metrics=registry
    )
    pipeline = UniDM(CachedLLM(backend), FULL_CONFIG)
    with Client.local(pipeline=pipeline, engine=engine) as client:
        with ThreadPoolExecutor(max_workers=len(slices)) as callers:
            answered = list(
                callers.map(
                    lambda batch: client.submit_many([SPECS[i] for i in batch]), slices
                )
            )
    for batch, results in zip(slices, answered):
        for i, result in zip(batch, results):
            assert result.error is None
            assert (
                result.answer,
                result.raw,
                result.calls,
                result.tokens,
            ) == ALONE[i][0], i
    assert len(backend.prompts) == len(set(backend.prompts))
    assert set(backend.prompts) == set().union(*(prompts for _, prompts in ALONE))
