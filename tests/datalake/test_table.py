"""Unit tests for Record and Table."""

import pytest

from repro.datalake import Record, Schema, Table, is_missing


def test_is_missing_values():
    assert is_missing(None)
    assert is_missing("")
    assert is_missing("?")
    assert is_missing("NaN")
    assert is_missing(float("nan"))
    assert not is_missing("value")
    assert not is_missing(0)


@pytest.mark.parametrize(
    "value, missing",
    [(value, True) for value in (None, float("nan"), "", "   ", "?", " ? ", "nan", " NaN ", "NULL",
                                 "Null", "N/A", "n/a", "NA", "na", "none", "None", "\tNONE\n")]
    + [(value, False) for value in (0, 0.0, False, "0", "nah", "n a", "??", "nil", "-", "value",
                                    float("inf"), [], ("?",))],
    ids=repr,
)
def test_is_missing_has_one_definition(value, missing):
    """Both directions: every spelling of "no value", in any case and padding,
    is missing; a falsy or look-alike value is a value."""
    assert is_missing(value) is missing


def test_record_from_mapping(city_schema):
    record = Record(city_schema, {"city": "Oslo", "country": "Norway"})
    assert record["city"] == "Oslo"
    assert record["population"] is None
    assert record.get("unknown", "x") == "x"


def test_record_from_sequence_length_check(city_schema):
    with pytest.raises(ValueError):
        Record(city_schema, ["only", "three", "values"])


def test_record_unknown_attribute_rejected(city_schema):
    with pytest.raises(KeyError):
        Record(city_schema, {"nope": 1})


def test_record_setitem_and_missing_attributes(city_schema):
    record = Record(city_schema, {"city": "Oslo"})
    record["country"] = "Norway"
    assert record["country"] == "Norway"
    assert "population" in record.missing_attributes()
    assert "country" not in record.missing_attributes()


def test_record_project_and_copy(city_schema):
    record = Record(city_schema, {"city": "Oslo", "country": "Norway"}, record_id=3)
    projected = record.project(["country"])
    assert projected.to_dict() == {"country": "Norway"}
    clone = record.copy()
    clone["city"] = "Bergen"
    assert record["city"] == "Oslo"
    assert clone.record_id == 3


def test_record_with_value_returns_new_record(city_schema):
    record = Record(city_schema, {"city": "Oslo"})
    updated = record.with_value("country", "Norway")
    assert updated["country"] == "Norway"
    assert record["country"] is None


def test_record_equality(city_schema):
    a = Record(city_schema, {"city": "Oslo"})
    b = Record(city_schema, {"city": "Oslo"})
    assert a == b
    assert hash(a) == hash(b)


def test_table_append_assigns_record_ids(city_table):
    ids = [record.record_id for record in city_table]
    assert ids == list(range(len(city_table)))


def test_table_column_and_distinct(city_table):
    countries = city_table.column("country")
    assert "Italy" in countries
    distinct = city_table.distinct("timezone")
    assert "Central European Time" in distinct
    assert None not in distinct  # missing dropped


def test_table_select_and_project(city_table):
    cet = city_table.select(lambda r: r["timezone"] == "Central European Time")
    assert len(cet) == 3
    projected = city_table.project(["city", "country"])
    assert projected.schema.names == ["city", "country"]
    assert len(projected) == len(city_table)


def test_table_head_and_copy_are_independent(city_table):
    head = city_table.head(2)
    assert len(head) == 2
    clone = city_table.copy()
    clone[0]["city"] = "CHANGED"
    assert city_table[0]["city"] != "CHANGED"


def test_table_missing_count(city_table):
    assert city_table.missing_count("timezone") == 1
    assert city_table.missing_count() >= 1


def test_table_value_counts_and_mode(city_table):
    counts = city_table.value_counts("timezone")
    assert counts["Central European Time"] == 3
    assert city_table.mode("timezone") == "Central European Time"
    assert Table("empty", city_table.schema).mode("timezone") is None


def test_table_from_dicts_infers_schema():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    table = Table.from_dicts("t", rows)
    assert table.schema.names == ["a", "b"]
    assert table.schema["a"].type.is_numeric()
    assert not table.schema["b"].type.is_numeric()


def test_table_append_coerces_foreign_record(city_table, city_schema):
    other_schema = Schema(list(city_schema.attributes))
    record = Record(other_schema, {"city": "Oslo", "country": "Norway"})
    appended = city_table.append(record)
    assert appended["city"] == "Oslo"


def test_table_requires_name(city_schema):
    with pytest.raises(ValueError):
        Table("", city_schema)


# -- partitioning and derived columns (the flow substrate) -----------------------
def test_partitions_chunk_rows_and_keep_record_ids(city_table):
    parts = list(city_table.partitions(4))
    assert [len(p) for p in parts] == [4, 2]
    assert [r.record_id for p in parts for r in p] == list(range(6))
    # Partition rows are copies: mutating one leaves the source intact.
    parts[0][0]["city"] = "CHANGED"
    assert city_table[0]["city"] != "CHANGED"
    with pytest.raises(ValueError):
        list(city_table.partitions(0))


def test_concat_restitches_partitions(city_table):
    parts = list(city_table.partitions(4))
    merged = Table.concat(parts)
    assert merged.to_dicts() == city_table.to_dicts()
    assert merged.name == city_table.name
    with pytest.raises(ValueError):
        Table.concat([])
    with pytest.raises(ValueError):
        Table.concat([city_table, city_table.project(["city"])])


def test_with_column_adds_replaces_and_validates(city_table):
    flagged = city_table.with_column("dirty", default=False)
    assert flagged.schema.names == city_table.schema.names + ["dirty"]
    assert flagged.column("dirty") == [False] * len(city_table)
    assert [r.record_id for r in flagged] == [r.record_id for r in city_table]

    replaced = flagged.with_column("dirty", values=[True] + [False] * 5)
    assert replaced.schema.names == flagged.schema.names  # replaced, not added
    assert replaced.column("dirty")[0] is True

    with pytest.raises(ValueError):
        city_table.with_column("dirty", values=[True])  # misaligned values
