"""Sampling helpers used by context retrieval and the dataset generators.

Instance-wise retrieval (Section 4.2) first shrinks ``D_i - R`` to a candidate
pool by random sampling before the LLM scores relevance; all randomness is
routed through :class:`numpy.random.Generator` instances so every experiment is
reproducible from a single seed.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, TypeVar

import numpy as np

from .table import Record, Table

T = TypeVar("T")


def make_rng(
    seed: int | np.random.Generator | None, key: str | None = None
) -> np.random.Generator:
    """Coerce a seed (or an existing generator) into a Generator.

    With a ``key`` (and an integer ``seed``) the generator is a function of
    ``(seed, key)``: the key's SHA-256 digest is folded into the seed
    sequence, so equal keys draw identically in any process (unlike the
    salted builtin ``hash``).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if key is None:
        return np.random.default_rng(seed)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest, "big")])


def sample_items(
    items: Sequence[T],
    k: int,
    rng: np.random.Generator | int | None = None,
    replace: bool = False,
) -> list[T]:
    """Sample ``k`` items (without replacement by default, order randomised)."""
    rng = make_rng(rng)
    if not items:
        return []
    if not replace:
        k = min(k, len(items))
    idx = rng.choice(len(items), size=k, replace=replace)
    return [items[int(i)] for i in np.atleast_1d(idx)]


def sample_records(
    table: Table,
    k: int,
    rng: np.random.Generator | int | None = None,
    exclude_ids: set[int] | None = None,
) -> list[Record]:
    """Sample up to ``k`` records from ``table``, excluding given record ids.

    This is the candidate-pool construction step of instance-wise retrieval:
    the paper samples 50 records from the table before asking the LLM to score
    them (Section 5.1).
    """
    exclude_ids = exclude_ids or set()
    pool = [r for r in table if r.record_id not in exclude_ids]
    return sample_items(pool, k, rng=rng)


def train_test_split_indices(
    n: int,
    test_fraction: float,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Return (train_idx, test_idx) for an ``n``-element dataset."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = make_rng(rng)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def split_table(
    table: Table,
    test_fraction: float,
    rng: np.random.Generator | int | None = None,
) -> tuple[Table, Table]:
    """Split a table into (train, test) tables by record."""
    train_idx, test_idx = train_test_split_indices(len(table), test_fraction, rng)
    train = Table(f"{table.name}_train", table.schema, description=table.description)
    test = Table(f"{table.name}_test", table.schema, description=table.description)
    records = table.records
    for i in train_idx:
        train.append(records[int(i)].copy())
    for i in test_idx:
        test.append(records[int(i)].copy())
    return train, test
