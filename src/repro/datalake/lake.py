"""The data lake: a named collection of heterogeneous tables.

Unlike a relational database, join relations between tables are *not*
declared (Section 3 of the paper); discovering them is itself a task (join
discovery, Appendix D).  The lake therefore only offers lookup, enumeration and
simple search over table/attribute names.
"""

from __future__ import annotations

from typing import Iterator

from .table import Table


class DataLake:
    """A collection of :class:`~repro.datalake.table.Table` objects."""

    def __init__(self, tables: list[Table] | None = None, name: str = "lake"):
        self.name = name
        self._tables: dict[str, Table] = {}
        for table in tables or []:
            self.add(table)

    # -- container protocol ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __getitem__(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"table {name!r} not found in lake {self.name!r}; "
                f"available: {sorted(self._tables)}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataLake(name={self.name!r}, tables={sorted(self._tables)})"

    # -- management -----------------------------------------------------------
    def add(self, table: Table, replace: bool = False) -> None:
        """Register a table; refuses to overwrite unless ``replace`` is set."""
        if table.name in self._tables and not replace:
            raise ValueError(f"table {table.name!r} already present in the lake")
        self._tables[table.name] = table

    def remove(self, name: str) -> Table:
        return self._tables.pop(name)

    def get(self, name: str) -> Table | None:
        return self._tables.get(name)

    @property
    def tables(self) -> list[Table]:
        return [self._tables[n] for n in sorted(self._tables)]
