"""Unit tests for CSV / JSON persistence of tables and lakes."""

from repro.datalake import (
    DataLake,
    lake_from_directory,
    lake_to_directory,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
)


def test_csv_round_trip(tmp_path, city_table):
    path = table_to_csv(city_table, tmp_path / "cities.csv")
    loaded = table_from_csv(path)
    assert loaded.schema.names == city_table.schema.names
    assert len(loaded) == len(city_table)
    assert loaded[0]["city"] == city_table[0]["city"]
    # Missing timezone round-trips as missing (empty -> None).
    assert loaded[5]["timezone"] is None


def test_csv_preserves_given_schema(tmp_path, city_table):
    path = table_to_csv(city_table, tmp_path / "cities.csv")
    loaded = table_from_csv(path, name="renamed", schema=city_table.schema)
    assert loaded.name == "renamed"
    assert loaded.schema.primary_key().name == "city"


def test_json_round_trip_preserves_schema_metadata(tmp_path, city_table):
    path = tmp_path / "cities.json"
    table_to_json(city_table, path)
    loaded = table_from_json(path)
    assert loaded.schema.primary_key().name == "city"
    assert loaded.schema["population"].type.is_numeric()
    assert len(loaded) == len(city_table)


def test_json_round_trip_from_string(city_table):
    payload = table_to_json(city_table)
    loaded = table_from_json(payload)
    assert loaded.name == city_table.name


def test_lake_directory_round_trip(tmp_path, city_table):
    lake = DataLake([city_table], name="demo")
    directory = lake_to_directory(lake, tmp_path / "lake")
    loaded = lake_from_directory(directory, name="demo")
    assert [table.name for table in loaded.tables] == ["cities"]
    assert len(loaded["cities"]) == len(city_table)
