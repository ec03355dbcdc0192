"""Tests for the Client facade over the in-process (local) backend."""

import asyncio

import pytest

from repro.api import Client, TaskFailedError, TransformationSpec
from repro.core import ImputationTask, TransformationTask
from repro.datalake import Table


@pytest.fixture
def client():
    return Client.local(seed=0, batch_size=4, workers=4)


def test_submit_answers_every_task_type(client, all_seven):
    for spec in all_seven:
        result = client.submit(spec)
        assert result.ok
        assert result.answer is not None
        assert result.task_type
        assert result.tokens > 0 and result.calls > 0
        assert result.elapsed > 0


def test_submit_is_deterministic_for_same_seed(all_seven):
    spec = all_seven[0]
    first = Client.local(seed=0).submit(spec)
    second = Client.local(seed=0).submit(spec)
    assert first.answer == second.answer == "1999-04-15"


def test_submit_many_keeps_order_and_embeds_errors(client, all_seven):
    good = TransformationSpec(value="x", examples=[["a", "A"]])
    results = client.submit_many([good, all_seven[2], good])
    assert [r.ok for r in results] == [True, True, True]
    assert results[0].answer == results[2].answer
    assert [r.id for r in results] == sorted(r.id for r in results)


def test_submit_raises_structured_error_on_failure(client):
    # A spec that validates client-side but fails service-side is hard to
    # build by construction (validation is shared); go through the service
    # with a raw bad request instead to prove the error path end-to-end.
    response = client.service.handle_request({"v": 2, "id": 1, "task": {"type": "nope"}})
    assert response["ok"] is False
    assert response["error"]["code"] == "unknown_task_type"

    class Hostile(TransformationSpec):
        def to_request(self):  # sabotage the wire form after validation
            return {"type": "transformation", "value": "x", "examples": [["x"]]}

    with pytest.raises(TaskFailedError) as excinfo:
        client.submit(Hostile(value="x", examples=[["a", "b"]]))
    assert excinfo.value.info.field == "examples"


def test_submit_many_never_raises_mid_batch(client):
    class Hostile(TransformationSpec):
        def to_request(self):
            return {"type": "transformation", "value": "x", "examples": []}

    results = client.submit_many(
        [
            TransformationSpec(value="x", examples=[["a", "A"]]),
            Hostile(value="y", examples=[["a", "b"]]),
        ]
    )
    assert results[0].ok
    assert not results[1].ok
    assert results[1].error.code == "invalid_request"
    assert results[1].error.field == "examples"


def test_submit_rejects_raw_tasks(client):
    task = TransformationTask("a", [("x", "y")])
    with pytest.raises(TypeError):
        client.submit_many([task])


def test_run_task_returns_rich_results(client):
    table = Table(
        "cities",
        ["city", "country"],
        [{"city": "Rome", "country": "Italy"}, {"city": "Oslo", "country": None}],
    )
    task = ImputationTask(table, table[1], "country")
    result = client.run_task(task)
    assert result.trace.target_prompt  # full trace, unlike the wire path
    assert result.query == "Oslo, country"


def test_asubmit_many_matches_sync(all_seven):
    specs = [all_seven[0], all_seven[2]]
    sync_results = Client.local(seed=0, batch_size=4, workers=4).submit_many(specs)
    async_client = Client.local(seed=0, batch_size=4, workers=4)
    async_results = asyncio.run(async_client.asubmit_many(specs))
    assert [r.answer for r in async_results] == [r.answer for r in sync_results]
    assert all(r.ok for r in async_results)


def test_request_ids_stay_unique_when_batches_are_encoded_together(client):
    """``asubmit_many`` calls in flight together encode on executor threads."""
    import sys
    import threading

    spec = TransformationSpec(value="x", examples=[["a", "A"]])
    ids, threads = [], []

    def encode():
        ids.extend(r["id"] for r in client._encode([spec] * 400))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(ids) == len(set(ids)) == 2400


def test_empty_batch(client):
    assert client.submit_many([]) == []
    assert asyncio.run(client.asubmit_many([])) == []


def test_client_exposes_local_internals_and_context_manager():
    with Client.local(seed=0) as client:
        assert client.is_local
        assert client.pipeline is client.service.pipeline


def test_local_rejects_pipeline_combined_with_llm_or_config():
    from repro.core import UniDM, UniDMConfig
    from repro.llm import SimulatedLLM

    pipeline = UniDM(SimulatedLLM(seed=0), UniDMConfig.full(seed=0))
    with pytest.raises(ValueError, match="not both"):
        Client.local(pipeline=pipeline, config=UniDMConfig.full(seed=5))
    with pytest.raises(ValueError, match="not both"):
        Client.local(pipeline=pipeline, llm=SimulatedLLM(seed=1))


@pytest.mark.parametrize("given", ["llm", "pipeline"])
@pytest.mark.parametrize(
    "dropped", [{"cache_dir": "c"}, {"model": "gpt-3-175b"}, {"knowledge": object()}]
)
def test_local_rejects_default_stack_arguments_next_to_a_model(given, dropped):
    """They configure the default simulated model; silently dropping them ran
    ``llm=real_model, cache_dir="c"`` uncached."""
    from repro.core import UniDM, UniDMConfig
    from repro.llm import SimulatedLLM

    llm = SimulatedLLM(seed=0)
    model = {"llm": llm} if given == "llm" else {"pipeline": UniDM(llm, UniDMConfig.full())}
    (name,) = dropped
    with pytest.raises(ValueError, match=f"either {given}= or {name}= .* not both"):
        Client.local(**model, **dropped)


@pytest.mark.parametrize(
    "dropped",
    [
        {"config": object()},
        {"llm_factory": lambda index: None},
        {"knowledge": object()},
        {"queue_depth": 4},
    ],
    ids=lambda dropped: next(iter(dropped)),
)
def test_process_cluster_rejects_thread_worker_only_arguments(dropped):
    (name,) = dropped
    with pytest.raises(ValueError, match=f'mode="process" or {name}= .* not both'):
        Client.cluster(workers=1, mode="process", **dropped)  # raises before spawning


def test_v1_flat_requests_still_work_through_the_service(client):
    # PR 1 clients speak the flat format and expect flat responses.
    response = client.service.handle_request(
        {
            "id": 9,
            "type": "transformation",
            "value": "19990415",
            "examples": [["20000101", "2000-01-01"]],
        }
    )
    assert response["ok"] is True
    assert set(response) == {"id", "ok", "answer", "raw", "tokens", "calls"}
    assert response["id"] == 9
