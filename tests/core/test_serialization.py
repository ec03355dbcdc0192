"""Unit tests for the serialize() helpers."""

from repro.core import (
    numbered_instances,
    record_pairs,
    serialize_record,
    serialize_records,
    serialize_rows,
)


def test_record_pairs_put_primary_key_first(city_table):
    pairs = record_pairs(city_table[0], ["country", "city"])
    assert pairs[0][0] == "city"


def test_record_pairs_skip_missing_by_default(city_table):
    copenhagen = city_table[5]
    names = [attr for attr, _ in record_pairs(copenhagen)]
    assert "timezone" not in names
    with_missing = record_pairs(copenhagen, include_missing=True)
    assert ("timezone", "?") in with_missing


def test_serialize_record_format(city_table):
    text = serialize_record(city_table[0], ["city", "country"])
    assert text == "city: Florence, country: Italy"


def test_serialize_records_one_line_per_record(city_table):
    text = serialize_records(city_table.records[:3], ["city", "country"])
    assert len(text.splitlines()) == 3


def test_serialize_rows():
    rows = [[("a", "1"), ("b", "2")], [], [("c", "3")]]
    text = serialize_rows(rows)
    assert text.splitlines() == ["a: 1, b: 2", "c: 3"]


def test_numbered_instances_start_at_one(city_table):
    text = numbered_instances(city_table.records[:2], ["city"])
    assert text.splitlines()[0].startswith("1) ")
    assert text.splitlines()[1].startswith("2) ")


def test_many_records_serialize_as_each_would_alone(city_table):
    # The attribute order is derived once per schema met, not per record: a
    # run of records over different schemas must still get each its own.
    other = city_table.project(["country", "city"]).records
    records = [city_table[0], other[1], other[2], city_table[5]]
    for attributes in (None, ["country", "city", "unknown", "country"], ["timezone"]):
        for include_missing in (False, True):
            lines = [serialize_record(r, attributes, include_missing) for r in records]
            assert serialize_records(records, attributes, include_missing) == "\n".join(lines)
        numbered = [f"{i}) {serialize_record(r, attributes)}" for i, r in enumerate(records, 1)]
        assert numbered_instances(records, attributes) == "\n".join(numbered)
