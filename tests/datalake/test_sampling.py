"""Unit tests for sampling and splitting helpers."""

import numpy as np
import pytest

from repro.datalake import (
    make_rng,
    sample_items,
    sample_records,
    split_table,
    train_test_split_indices,
)


def test_make_rng_accepts_generator_and_seed():
    rng = np.random.default_rng(0)
    assert make_rng(rng) is rng
    assert isinstance(make_rng(3), np.random.Generator)


def test_make_rng_with_key_is_a_process_stable_function_of_seed_and_key():
    def draw(seed, key):
        return make_rng(seed, key).integers(1 << 30, size=3).tolist()

    key = "IMPUTATION\x1fMilan, country\x1fNone"
    # Pinned: a worker subprocess (other PYTHONHASHSEED) must draw the same.
    assert draw(0, key) == [569111219, 841573649, 982155211]
    assert draw(0, key) != draw(1, key)
    assert draw(0, key) != draw(0, key + "x")
    assert draw(0, key) != make_rng(0).integers(1 << 30, size=3).tolist()


def test_sample_items_without_replacement_caps_k():
    items = list(range(5))
    sampled = sample_items(items, 10, rng=0)
    assert sorted(sampled) == items


def test_sample_items_reproducible():
    items = list(range(100))
    assert sample_items(items, 5, rng=42) == sample_items(items, 5, rng=42)


def test_sample_items_empty():
    assert sample_items([], 3, rng=0) == []


def test_sample_records_excludes_ids(city_table):
    exclude = {0, 1}
    sampled = sample_records(city_table, 10, rng=0, exclude_ids=exclude)
    assert all(record.record_id not in exclude for record in sampled)


def test_train_test_split_indices_disjoint():
    train, test = train_test_split_indices(20, 0.25, rng=0)
    assert len(set(train) & set(test)) == 0
    assert len(train) + len(test) == 20
    assert len(test) == 5


def test_train_test_split_invalid_fraction():
    with pytest.raises(ValueError):
        train_test_split_indices(10, 1.5, rng=0)


def test_split_table_partitions_records(city_table):
    train, test = split_table(city_table, 0.34, rng=1)
    assert len(train) + len(test) == len(city_table)
    assert train.schema == city_table.schema
    assert len(test) >= 1
