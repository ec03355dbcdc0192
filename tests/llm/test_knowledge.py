"""Unit tests for the WorldKnowledge store."""

import pytest

from repro.llm import Fact, WorldKnowledge


def test_fact_prevalence_validation():
    with pytest.raises(ValueError):
        Fact("a", "b", "c", prevalence=1.5)


def test_add_and_exact_lookup(city_knowledge):
    fact = city_knowledge.lookup("Copenhagen", "timezone")
    assert fact is not None
    assert fact.value == "Central European Time"


def test_lookup_is_case_insensitive(city_knowledge):
    assert city_knowledge.lookup("copenhagen", "country").value == "Denmark"


def test_fuzzy_lookup_tolerates_minor_differences(city_knowledge):
    fact = city_knowledge.lookup("Copenhagen.", "country")
    assert fact is not None and fact.value == "Denmark"


def test_fuzzy_lookup_rejects_unrelated_subjects(city_knowledge):
    assert city_knowledge.lookup("completely different entity", "country") is None


def test_lookup_without_fuzzy(city_knowledge):
    assert city_knowledge.lookup("Copenhagen!", "country", fuzzy=False) is None


def test_facts_about_subject(city_knowledge):
    facts = city_knowledge.facts_about("Florence")
    relations = {f.relation for f in facts}
    assert {"country", "timezone"} <= relations


def test_contains_and_len(city_knowledge):
    assert ("Florence", "country") in city_knowledge
    assert ("Florence", "mayor") not in city_knowledge
    assert len(city_knowledge) > 5


def test_relation_template_rendering(city_knowledge):
    sentence = city_knowledge.render_fact("Florence", "country", "Italy")
    assert sentence == "Florence is a city in the country Italy"
    default = city_knowledge.render_fact("Florence", "mayor", "Nardella")
    assert "mayor" in default and "Florence" in default


def test_relation_template_validation():
    knowledge = WorldKnowledge()
    with pytest.raises(ValueError):
        knowledge.set_relation_template("x", "missing placeholders")


def test_relation_regex_round_trip(city_knowledge):
    sentence = city_knowledge.render_fact("Florence", "timezone", "Central European Time")
    match = city_knowledge.relation_regex("timezone").match(sentence)
    assert match is not None
    assert match.group("subject") == "Florence"
    assert match.group("value") == "Central European Time"


def test_attribute_links(city_knowledge):
    assert city_knowledge.attribute_link("country", "timezone") == pytest.approx(0.9)
    assert city_knowledge.attribute_link("timezone", "country") == pytest.approx(0.9)
    assert city_knowledge.attribute_link("country", "missing") == 0.0


def test_attribute_link_validation():
    knowledge = WorldKnowledge()
    with pytest.raises(ValueError):
        knowledge.add_attribute_link("a", "b", 2.0)


def test_domain_values_and_validity(city_knowledge):
    assert city_knowledge.is_valid_value("country", "Italy") is True
    assert city_knowledge.is_valid_value("country", "Italyy") is False
    assert city_knowledge.is_valid_value("unknown_attribute", "x") is None
    closest = city_knowledge.closest_domain_value("country", "Itly")
    assert closest is not None and closest[0] == "italy"


def test_domain_attributes(city_knowledge):
    assert "country" in city_knowledge.domain_attributes()


def test_equivalences_and_canonicalize():
    knowledge = WorldKnowledge()
    knowledge.add_equivalence("india pale ale", "ipa")
    assert knowledge.are_equivalent("IPA", "India Pale Ale")
    assert not knowledge.are_equivalent("ipa", "stout")
    canonical_a = knowledge.canonicalize("hoppy ipa beer")
    canonical_b = knowledge.canonicalize("hoppy india pale ale beer")
    assert canonical_a == canonical_b


def test_merge_combines_stores(city_knowledge):
    other = WorldKnowledge()
    other.add_fact("Oslo", "country", "Norway", 0.9)
    other.add_domain_value("country", "Norway")
    city_knowledge.merge(other)
    assert city_knowledge.lookup("Oslo", "country").value == "Norway"
    assert "norway" in city_knowledge.domain_values("country")
