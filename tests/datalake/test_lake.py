"""Unit tests for the DataLake container."""

import pytest

from repro.datalake import DataLake, Schema, Table


def make_table(name, columns):
    return Table(name, Schema(columns), [])


def test_lake_add_and_lookup(city_table):
    lake = DataLake([city_table], name="test")
    assert "cities" in lake
    assert lake["cities"] is city_table
    assert len(lake) == 1


def test_lake_duplicate_add_rejected(city_table):
    lake = DataLake([city_table])
    with pytest.raises(ValueError):
        lake.add(city_table)
    lake.add(city_table, replace=True)  # replace allowed explicitly


def test_lake_missing_table_error_mentions_available(city_table):
    lake = DataLake([city_table])
    with pytest.raises(KeyError, match="cities"):
        _ = lake["nope"]


def test_lake_remove_and_get(city_table):
    lake = DataLake([city_table])
    assert lake.get("cities") is city_table
    removed = lake.remove("cities")
    assert removed is city_table
    assert lake.get("cities") is None


def test_lake_iteration_sorted_by_name(city_table):
    lake = DataLake([make_table("zzz", ["a"]), city_table])
    assert [t.name for t in lake.tables] == ["cities", "zzz"]
