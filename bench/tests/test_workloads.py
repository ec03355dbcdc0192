"""Inputs are a pure function of the seed; the oracle tells right from wrong."""

import dataclasses
import json
from collections import Counter

import pytest

from repro.api import Client

from bench.stub import ApiStubLLM, reply
from bench.workloads import (
    BY_NAME,
    EXPECTED_CALLS,
    NO_ORACLE,
    ORDER_INDEPENDENT,
    PIPELINE_STAGES,
    TASK_TYPES,
    CallPlan,
    build_oracle,
    check_result,
    encoded_requests,
    pipeline_at,
)


def _first_specs(workload: str, seed: int, n: int):
    plan = CallPlan(BY_NAME[workload], seed)
    return [plan.spec(index) for index in range(n)]


def _canonical(spec) -> str:
    return json.dumps(spec.to_request(), sort_keys=True)


@pytest.mark.parametrize("workload", ["interactive", "pipeline_cluster"])
def test_same_seed_yields_byte_identical_requests(workload):
    n = 70 if workload == "interactive" else 3
    assert encoded_requests(_first_specs(workload, 7, n)) == encoded_requests(
        _first_specs(workload, 7, n)
    )


@pytest.mark.parametrize("workload", ["interactive", "pipeline_cluster"])
def test_two_seeds_yield_disjoint_specs(workload):
    n = 140 if workload == "interactive" else 3
    one = {_canonical(spec) for spec in _first_specs(workload, 1, n)}
    two = {_canonical(spec) for spec in _first_specs(workload, 2, n)}
    assert len(one) == len(two) == n  # unique within a seed too
    assert one.isdisjoint(two)


def test_the_seven_types_are_evenly_mixed():
    counts = Counter(spec.type for spec in _first_specs("bulk", 3, 70))
    assert counts == {kind: 10 for kind in TASK_TYPES}


def test_clients_never_share_a_fresh_spec_and_replay_cycles_its_working_set():
    fresh = CallPlan(BY_NAME["bulk"], 1)
    sent = [i for n in range(5) for client in range(2) for i in fresh.indices(client, n)]
    assert len(sent) == len(set(sent))

    replay = CallPlan(BY_NAME["replay"], 1)
    workload = replay.workload
    per_pass = workload.working_set // workload.call_size // 2
    assert replay.warmup_calls == per_pass
    first, again = replay.indices(0, 0), replay.indices(0, per_pass)
    assert first[: workload.call_size] == again[: workload.call_size]
    # ... plus specs no earlier call carried.
    assert set(first[workload.call_size :]).isdisjoint(again[workload.call_size :])
    assert min(again[workload.call_size :]) >= workload.working_set


def test_the_stub_is_prompt_pure_and_answers_yes_no_prompts_in_kind():
    assert reply("some prompt") == reply("some prompt") != reply("another prompt")
    assert reply("Is it so? Yes or No.") in ("Yes", "No")
    cloze = reply(
        "Write the claim as a cloze question.\nClaim: The task is entity resolution "
        "which is the process of ... The target query is [A, B].\nCloze question:"
    )
    assert cloze.endswith("Yes or No.")
    stub = ApiStubLLM()
    [one, two] = stub.complete_batch(["p1", "p2"])
    assert (one.text, two.text) == (reply("p1"), reply("p2"))
    assert stub.counters() == {
        "round_trips": 1,
        "prompts": 2,
        "prompt_chars": 4,
        "tokens": one.total_tokens + two.total_tokens,
    }


@pytest.fixture(scope="module")
def answered():
    """The oracle sample of ``interactive``, answered by a second, fresh stack."""
    plan = CallPlan(BY_NAME["interactive"], 5)
    oracle = build_oracle(plan)
    with Client.local(llm=ApiStubLLM()) as client:
        indices = plan.oracle_indices()
        results = client.submit_many([plan.spec(i) for i in indices])
    return plan, oracle, dict(zip(indices, results))


def test_oracle_accepts_the_right_answers(answered):
    plan, oracle, results = answered
    assert {plan.spec(i).type for i in oracle} == ORDER_INDEPENDENT
    first_id = results[min(results)].id
    for position, (index, result) in enumerate(results.items()):
        assert result.calls == EXPECTED_CALLS[plan.spec(index).type]
        problem = check_result(
            plan.spec(index), result, first_id + position, oracle.get(index, NO_ORACLE)
        )
        assert problem is None, problem


def test_oracle_rejects_a_swapped_answer_a_wrong_call_count_and_a_wrong_id(answered):
    plan, oracle, results = answered
    # Two transformation specs: same type, same call count, different answers.
    one, other = [i for i in oracle if plan.spec(i).type == "transformation"][:2]
    swapped = dataclasses.replace(results[one], answer=results[other].answer)
    problem = check_result(plan.spec(one), swapped, swapped.id, oracle[one])
    assert "differs from the oracle" in problem
    padded = dataclasses.replace(results[one], calls=results[one].calls + 1)
    assert "LLM calls" in check_result(plan.spec(one), padded, padded.id, oracle[one])
    assert "echoed" in check_result(plan.spec(one), results[one], results[one].id + 1, oracle[one])
    # Outside the oracle sample an answer must still be one the stub can give.
    imputation = next(i for i in results if plan.spec(i).type == "imputation")
    invented = dataclasses.replace(results[imputation], answer="springfield")
    assert "codomain" in check_result(plan.spec(imputation), invented, invented.id)


def test_a_pipeline_compiles_one_work_item_per_row_and_stage():
    spec = pipeline_at(1, 0, listings=4)
    with Client.local(llm=ApiStubLLM()) as client:
        result = client.submit(spec)
    assert check_result(spec, result, result.id) is None
    report = result.answer["report"]
    assert report["specs"] == PIPELINE_STAGES * len(spec.rows) == 36
    assert report["submitted"] < report["specs"]  # the duplicates deduplicate
    short = dataclasses.replace(
        result, answer={**result.answer, "report": {**report, "specs": report["specs"] - 1}}
    )
    assert "report.specs" in check_result(spec, short, short.id)
