"""Data lake substrate: schemas, tables, records, lakes, IO and text utilities."""

from .lake import DataLake
from .schema import Attribute, AttributeType, Schema
from .table import Record, Table, is_missing
from .sampling import (
    make_rng,
    sample_items,
    sample_records,
    split_table,
    train_test_split_indices,
)
from .io import (
    lake_from_directory,
    lake_to_directory,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
)
from . import text

__all__ = [
    "Attribute",
    "AttributeType",
    "DataLake",
    "Record",
    "Schema",
    "Table",
    "is_missing",
    "lake_from_directory",
    "lake_to_directory",
    "make_rng",
    "sample_items",
    "sample_records",
    "split_table",
    "table_from_csv",
    "table_from_json",
    "table_to_csv",
    "table_to_json",
    "text",
    "train_test_split_indices",
]
