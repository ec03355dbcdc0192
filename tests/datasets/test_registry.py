"""Unit tests for the dataset registry and BenchmarkDataset container."""

import pytest

from repro.core.types import TaskType
from repro.datasets import DATASET_REGISTRY, BenchmarkDataset, list_datasets, load_dataset


def test_registry_lists_all_paper_benchmarks():
    expected = {
        "restaurant", "buy", "stackoverflow", "bing_querylogs", "hospital",
        "adult", "beer", "amazon_google", "itunes_amazon", "walmart_amazon",
        "wiki_table_questions", "nextiajd", "nba_players",
    }
    assert expected == set(list_datasets())
    assert set(DATASET_REGISTRY) == expected


def test_load_dataset_unknown_name():
    with pytest.raises(KeyError):
        load_dataset("not-a-dataset")


def test_load_dataset_passes_builder_kwargs():
    dataset = load_dataset("restaurant", seed=1, n_records=40, n_tasks=5)
    assert len(dataset) == 5
    assert len(dataset.table) == 40


def test_dataset_alignment_enforced(restaurant_dataset):
    with pytest.raises(ValueError):
        BenchmarkDataset(
            name="broken",
            task_type=TaskType.DATA_IMPUTATION,
            tables={},
            knowledge=restaurant_dataset.knowledge,
            tasks=list(restaurant_dataset.tasks),
            ground_truth=[],
        )


def test_dataset_subset(restaurant_dataset):
    subset = restaurant_dataset.subset(5, seed=1)
    assert len(subset) == 5
    assert len(subset.tasks) == len(subset.ground_truth)
    assert restaurant_dataset.subset(10_000) is restaurant_dataset


def test_dataset_table_property_and_lake(restaurant_dataset, beer_dataset):
    assert restaurant_dataset.table.name == "restaurant"
    with pytest.raises(ValueError):
        _ = beer_dataset.table  # two tables -> ambiguous
    assert len(beer_dataset.tables) == 2


def test_builders_are_deterministic_per_seed():
    a = load_dataset("buy", seed=3, n_records=30, n_tasks=5)
    b = load_dataset("buy", seed=3, n_records=30, n_tasks=5)
    assert [t.query() for t in a.tasks] == [t.query() for t in b.tasks]
    assert a.ground_truth == b.ground_truth
    c = load_dataset("buy", seed=4, n_records=30, n_tasks=5)
    assert [t.query() for t in a.tasks] != [t.query() for t in c.tasks]
