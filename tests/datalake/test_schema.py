"""Unit tests for Schema and Attribute."""

import pytest

from repro.datalake import Attribute, AttributeType, Schema


def test_attribute_defaults():
    attr = Attribute("name")
    assert attr.type is AttributeType.TEXT
    assert not attr.primary_key
    assert attr.description == ""


def test_attribute_requires_name():
    with pytest.raises(ValueError):
        Attribute("")


def test_attribute_type_is_numeric():
    assert AttributeType.NUMERIC.is_numeric()
    assert not AttributeType.TEXT.is_numeric()


def test_schema_accepts_strings_and_attributes():
    schema = Schema(["a", Attribute("b", AttributeType.NUMERIC)])
    assert schema.names == ["a", "b"]
    assert schema["b"].type is AttributeType.NUMERIC


def test_schema_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        Schema(["a", "a"])


def test_schema_contains_and_getitem(city_schema):
    assert "city" in city_schema
    assert "unknown" not in city_schema
    assert city_schema[0].name == "city"
    assert city_schema["country"].name == "country"


def test_schema_contains_attribute_object(city_schema):
    assert Attribute("city") in city_schema


def test_schema_primary_key(city_schema):
    pk = city_schema.primary_key()
    assert pk is not None and pk.name == "city"
    assert Schema(["a", "b"]).primary_key() is None


def test_schema_index_of(city_schema):
    assert city_schema.index_of("country") == 1
    with pytest.raises(KeyError):
        city_schema.index_of("nope")


def test_schema_names_is_a_fresh_list(city_schema):
    names = city_schema.names
    names.append("extra")
    names[0] = "changed"
    assert city_schema.names == ["city", "country", "population", "timezone"]
    assert city_schema.index_of("city") == 0 and "extra" not in city_schema


def test_derived_schemas_index_their_own_order(city_schema):
    for derived in (
        city_schema.project(["timezone", "city"]),
        city_schema.drop(["city"]),
        city_schema.rename({"city": "town", "timezone": "tz"}),
    ):
        assert [derived.index_of(name) for name in derived.names] == list(range(len(derived)))
        assert [derived[index].name for index in range(len(derived))] == derived.names
    renamed = city_schema.rename({"city": "town"})
    with pytest.raises(KeyError):
        renamed.index_of("city")


def test_schema_project_preserves_order(city_schema):
    projected = city_schema.project(["timezone", "city"])
    assert projected.names == ["timezone", "city"]


def test_schema_project_unknown_raises(city_schema):
    with pytest.raises(KeyError):
        city_schema.project(["city", "nope"])


def test_schema_drop(city_schema):
    assert city_schema.drop(["population"]).names == ["city", "country", "timezone"]


def test_schema_rename_keeps_metadata(city_schema):
    renamed = city_schema.rename({"city": "town"})
    assert renamed.names[0] == "town"
    assert renamed["town"].primary_key


def test_schema_equality_and_hash(city_schema):
    other = Schema(list(city_schema.attributes))
    assert other == city_schema
    assert hash(other) == hash(city_schema)
    assert Schema(["x"]) != city_schema


def test_schema_iteration_yields_attributes(city_schema):
    names = [a.name for a in city_schema]
    assert names == city_schema.names
    assert len(city_schema) == 4
