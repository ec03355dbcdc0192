"""Unit tests for the SimulatedLLM prompt handlers."""

import pytest

from repro.llm import SimulatedLLM
from repro.prompting import DATA_PARSING, INSTANCE_RETRIEVAL, META_RETRIEVAL


def test_meta_retrieval_selects_linked_attribute(city_llm):
    prompt = META_RETRIEVAL.render(
        task="data imputation",
        query="Copenhagen, timezone",
        candidates="country, population",
    )
    reply = city_llm.complete(prompt, kind="p_rm").text
    assert "country" in reply
    # population is weakly linked and should not outrank country
    assert reply.split(",")[0].strip() == "country"


def test_instance_scoring_prefers_related_records(city_llm):
    instances = "\n".join(
        [
            "1) city: Florence, country: Italy, timezone: Central European Time",
            "2) city: London, country: United Kingdom, timezone: Greenwich Mean Time",
            "3) city: Antwerp, country: Belgium, timezone: Central European Time",
        ]
    )
    prompt = INSTANCE_RETRIEVAL.render(
        task="data imputation", query="Copenhagen, timezone", instances=instances
    )
    reply = city_llm.complete(prompt, kind="p_ri").text
    scores = {}
    for line in reply.splitlines():
        index, score = line.split(":")
        scores[int(index)] = int(score)
    assert set(scores) == {1, 2, 3}
    assert all(0 <= s <= 3 for s in scores.values())


def test_data_parsing_uses_relation_templates(city_llm):
    prompt = DATA_PARSING.render(
        serialized="city: Florence, country: Italy, timezone: Central European Time"
    )
    reply = city_llm.complete(prompt, kind="p_dp").text
    assert "Florence is a city in the country Italy." in reply
    assert "Florence is in the timezone Central European Time." in reply


def test_cloze_construction_produces_parseable_cloze(city_llm):
    prompt = (
        "Write the claim as a cloze question.\n"
        "Claim: The task is data imputation which produces the missing data. "
        "The context is [Florence is a city in the country Italy.]. "
        "The target query is [Copenhagen, timezone].\n"
        "Cloze question:"
    )
    reply = city_llm.complete(prompt, kind="p_cq").text
    assert "The timezone of Copenhagen is __." in reply
    assert "Florence" in reply


def test_answer_prompt_round_trip(city_llm):
    reply = city_llm.complete("The country of Copenhagen is __.").text
    assert isinstance(reply, str) and reply


def test_usage_accumulates_a_labelled_call(city_llm):
    completion = city_llm.complete("The country of Copenhagen is __.", kind="answer")
    assert city_llm.usage.calls >= 1
    assert city_llm.usage.total_tokens >= completion.total_tokens > 0


def test_simulated_llm_is_deterministic_per_seed(city_knowledge):
    prompt = "The timezone of Copenhagen is __."
    a = SimulatedLLM(knowledge=city_knowledge, seed=5).complete(prompt).text
    b = SimulatedLLM(knowledge=city_knowledge, seed=5).complete(prompt).text
    assert a == b


def test_simulated_llm_accepts_profile_string(city_knowledge):
    llm = SimulatedLLM(profile="gpt-4-turbo", knowledge=city_knowledge, seed=0)
    assert llm.name == "gpt-4-turbo"
    with pytest.raises(KeyError):
        SimulatedLLM(profile="no-such-model", knowledge=city_knowledge)
