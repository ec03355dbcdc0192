"""Schema definitions for relational tables stored in a data lake.

A :class:`Schema` is an ordered collection of :class:`Attribute` objects.  The
paper (Section 3) treats every data-lake element ``D_i`` as a relational table
with a schema ``S_i``; tasks select an attribute subset ``S ⊆ S_i``.  We keep
the model deliberately small: attributes have a name, a coarse type and a few
optional annotations (primary-key flag, free-text description, semantic domain
tag) that the retrieval and parsing components can exploit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class AttributeType(str, enum.Enum):
    """Coarse value types carried by a table column."""

    TEXT = "text"
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    DATE = "date"
    IDENTIFIER = "identifier"

    def is_numeric(self) -> bool:
        return self is AttributeType.NUMERIC


@dataclass(frozen=True)
class Attribute:
    """A single column of a relational table.

    Parameters
    ----------
    name:
        Column name, unique within a schema.
    type:
        Coarse :class:`AttributeType`; defaults to free text.
    primary_key:
        Whether the column identifies a record (used to build the target query
        ``Q`` for imputation, e.g. ``"Copenhagen, timezone"``).
    description:
        Optional human-readable description (surfaced to the LLM as metadata).
    domain:
        Optional semantic-domain tag, e.g. ``"geography.city"``.  The simulated
        LLM uses domain tags to decide how familiar a value is.
    """

    name: str
    type: AttributeType = AttributeType.TEXT
    primary_key: bool = False
    description: str = ""
    domain: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class Schema:
    """Ordered, name-addressable collection of :class:`Attribute` objects."""

    def __init__(self, attributes: Iterable[Attribute | str]):
        attrs: list[Attribute] = []
        for a in attributes:
            attrs.append(Attribute(a) if isinstance(a, str) else a)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate attribute names in schema: {dupes}")
        self._attributes: tuple[Attribute, ...] = tuple(attrs)
        self._by_name: dict[str, Attribute] = {a.name: a for a in attrs}
        self._index: dict[str, int] = {name: i for i, name in enumerate(names)}

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        if isinstance(name, Attribute):
            return name.name in self._by_name
        return name in self._by_name

    def __getitem__(self, key: int | str) -> Attribute:
        if isinstance(key, int):
            return self._attributes[key]
        return self._by_name[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schema({[a.name for a in self._attributes]})"

    # -- accessors ----------------------------------------------------------
    @property
    def names(self) -> list[str]:
        """Attribute names in declaration order (a fresh list each time)."""
        return list(self._by_name)

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    def get(self, name: str) -> Attribute | None:
        return self._by_name.get(name)

    def primary_key(self) -> Attribute | None:
        """Return the (first) primary-key attribute, if declared."""
        for a in self._attributes:
            if a.primary_key:
                return a
        return None

    def index_of(self, name: str) -> int:
        return self._index[name]

    # -- derivation ---------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Schema":
        """Return a new schema restricted to ``names`` (in the given order)."""
        missing = [n for n in names if n not in self._by_name]
        if missing:
            raise KeyError(f"unknown attributes: {missing}")
        return Schema([self._by_name[n] for n in names])

    def drop(self, names: Sequence[str]) -> "Schema":
        """Return a new schema with ``names`` removed."""
        drop = set(names)
        return Schema([a for a in self._attributes if a.name not in drop])

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a new schema with attributes renamed according to ``mapping``."""
        out = []
        for a in self._attributes:
            if a.name in mapping:
                out.append(
                    Attribute(
                        name=mapping[a.name],
                        type=a.type,
                        primary_key=a.primary_key,
                        description=a.description,
                        domain=a.domain,
                    )
                )
            else:
                out.append(a)
        return Schema(out)
