"""Records and tables — the relational elements of a data lake.

The paper formalises every lake element ``D_i`` as a relational table of
records; ``r[s]`` denotes the value of record ``r`` on attribute ``s``.  The
classes here provide exactly that addressing plus the small amount of
relational algebra (projection, selection, sampling) the UniDM pipeline and the
baselines need.  Missing values are represented by ``None`` (or the sentinel
string ``"?"`` when rendering prompts).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, Callable, Iterable, Iterator

from .schema import Attribute, AttributeType, Schema

#: The strings treated as "missing" throughout the library, stripped and
#: lower-cased (``None`` and a float NaN are missing too).
_MISSING_STRINGS = frozenset({"", "?", "nan", "null", "n/a", "na", "none"})


def is_missing(value: Any) -> bool:
    """Return True when ``value`` should be treated as a missing cell."""
    if value is None:
        return True
    if isinstance(value, str):
        return value.strip().lower() in _MISSING_STRINGS
    if isinstance(value, float):
        return value != value  # NaN
    return False


class Record:
    """A single tuple of a table, addressable by attribute name.

    Records keep a reference to their schema so that ``record[s]`` mirrors the
    paper's ``r[s]`` notation and iteration preserves attribute order.
    """

    __slots__ = ("_schema", "_values", "record_id")

    def __init__(
        self,
        schema: Schema,
        values: Mapping[str, Any] | Sequence[Any],
        record_id: int | None = None,
    ):
        self._schema = schema
        # A list is checked first: positional rows (the wire's) skip the ABC
        # ``Mapping`` check.
        if not isinstance(values, list) and isinstance(values, Mapping):
            self._values = [values.get(name) for name in schema.names]
            unknown = [name for name in values if schema.get(name) is None]
            if unknown:
                raise KeyError(f"values for unknown attributes: {sorted(unknown)}")
        else:
            values = list(values)
            if len(values) != len(schema):
                raise ValueError(
                    f"expected {len(schema)} values, got {len(values)}"
                )
            self._values = values
        self.record_id = record_id

    # -- mapping-ish protocol ------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    def __getitem__(self, attribute: str | Attribute) -> Any:
        name = attribute.name if isinstance(attribute, Attribute) else attribute
        return self._values[self._schema.index_of(name)]

    def __setitem__(self, attribute: str | Attribute, value: Any) -> None:
        name = attribute.name if isinstance(attribute, Attribute) else attribute
        self._values[self._schema.index_of(name)] = value

    def __contains__(self, name: object) -> bool:
        return name in self._schema

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.names)

    def __len__(self) -> int:
        return len(self._schema)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self._schema.names == other._schema.names
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((tuple(self._schema.names), tuple(map(str, self._values))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(f"{k}={v!r}" for k, v in self.items())
        return f"Record({pairs})"

    # -- convenience ----------------------------------------------------------
    def get(self, name: str, default: Any = None) -> Any:
        if name not in self._schema:
            return default
        return self[name]

    def items(self) -> list[tuple[str, Any]]:
        return list(zip(self._schema.names, self._values))

    def values(self) -> list[Any]:
        return list(self._values)

    def to_dict(self) -> dict[str, Any]:
        return dict(self.items())

    def project(self, names: Sequence[str]) -> "Record":
        """Return a copy of the record restricted to ``names``."""
        sub = self._schema.project(names)
        return Record(sub, [self[n] for n in names], record_id=self.record_id)

    def copy(self) -> "Record":
        return Record(self._schema, list(self._values), record_id=self.record_id)


class Table:
    """A named relational table: a schema plus an ordered list of records."""

    def __init__(
        self,
        name: str,
        schema: Schema | Sequence[Attribute | str],
        records: Iterable[Record | Mapping[str, Any] | Sequence[Any]] = (),
        description: str = "",
    ):
        if not name:
            raise ValueError("table name must be non-empty")
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.description = description
        self._records: list[Record] = []
        for rec in records:
            self.append(rec)

    # -- container protocol ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Table(name={self.name!r}, attributes={self.schema.names}, "
            f"n_records={len(self)})"
        )

    # -- mutation -------------------------------------------------------------
    def append(self, record: Record | Mapping[str, Any] | Sequence[Any]) -> Record:
        """Append a record (coercing dicts / sequences) and return it."""
        if isinstance(record, Record):
            if record.schema.names != self.schema.names:
                record = Record(self.schema, record.to_dict(), record.record_id)
        else:
            record = Record(self.schema, record)
        if record.record_id is None:
            record.record_id = len(self._records)
        self._records.append(record)
        return record

    def extend(self, records: Iterable[Record | Mapping[str, Any]]) -> None:
        for rec in records:
            self.append(rec)

    # -- relational operations --------------------------------------------------
    @property
    def records(self) -> list[Record]:
        return list(self._records)

    def column(self, name: str) -> list[Any]:
        """All values of attribute ``name`` in record order."""
        return [r[name] for r in self._records]

    def distinct(self, name: str, drop_missing: bool = True) -> list[Any]:
        """Distinct values of a column, preserving first-seen order."""
        seen: dict[Any, None] = {}
        for value in self.column(name):
            if drop_missing and is_missing(value):
                continue
            seen.setdefault(value, None)
        return list(seen)

    def select(self, predicate: Callable[[Record], bool]) -> "Table":
        """Return a new table containing the records matching ``predicate``."""
        out = Table(self.name, self.schema, description=self.description)
        for r in self._records:
            if predicate(r):
                out.append(r.copy())
        return out

    def project(self, names: Sequence[str]) -> "Table":
        """Return a new table restricted to the given attributes."""
        out = Table(self.name, self.schema.project(names), description=self.description)
        for r in self._records:
            out.append(r.project(names))
        return out

    def head(self, n: int) -> "Table":
        out = Table(self.name, self.schema, description=self.description)
        for r in self._records[:n]:
            out.append(r.copy())
        return out

    def partitions(self, size: int) -> Iterator["Table"]:
        """Yield consecutive row chunks of ``size`` as stand-alone tables.

        The last partition may be shorter; records keep their original
        ``record_id``, so per-partition results can be written back to the
        source rows.  This is the streaming unit of the flow executor: a large
        table is processed a few partitions at a time so that prompt material
        is bounded by ``max(batch_size, partition size)`` rows, never the
        table size.
        """
        if size < 1:
            raise ValueError("partition size must be positive")
        for start in range(0, len(self._records), size):
            out = Table(self.name, self.schema, description=self.description)
            for r in self._records[start : start + size]:
                out.append(r.copy())
            yield out

    @classmethod
    def concat(cls, parts: Sequence["Table"], name: str | None = None) -> "Table":
        """Stitch same-schema tables (e.g. processed partitions) back together."""
        if not parts:
            raise ValueError("concat needs at least one table")
        first = parts[0]
        out = cls(name or first.name, first.schema, description=first.description)
        for part in parts:
            if part.schema.names != first.schema.names:
                raise ValueError(
                    f"cannot concat tables with different columns: "
                    f"{part.schema.names} vs {first.schema.names}"
                )
            for r in part:
                out.append(r.copy())
        return out

    def with_column(
        self,
        name: str,
        values: Sequence[Any] | None = None,
        default: Any = None,
        attribute: Attribute | None = None,
    ) -> "Table":
        """Return a copy with column ``name`` added (or replaced, if present).

        ``values`` must align with the records when given; otherwise every
        cell gets ``default``.  Derived columns written by flow operators
        (error flags, extracted attributes, joined columns) enter tables
        through here, which keeps schema and rows consistent.
        """
        if values is not None and len(values) != len(self._records):
            raise ValueError(
                f"column {name!r}: got {len(values)} values for "
                f"{len(self._records)} records"
            )
        attr = attribute or Attribute(name)
        if name in self.schema:
            schema = Schema(
                [attr if a.name == name else a for a in self.schema.attributes]
            )
        else:
            schema = Schema(list(self.schema.attributes) + [attr])
        out = Table(self.name, schema, description=self.description)
        for i, r in enumerate(self._records):
            row = r.to_dict()
            row[name] = values[i] if values is not None else default
            out.append(Record(schema, row, record_id=r.record_id))
        return out

    def copy(self) -> "Table":
        out = Table(self.name, self.schema, description=self.description)
        for r in self._records:
            out.append(r.copy())
        return out

    # -- statistics -------------------------------------------------------------
    def value_counts(self, name: str) -> dict[Any, int]:
        counts: dict[Any, int] = {}
        for value in self.column(name):
            if is_missing(value):
                continue
            counts[value] = counts.get(value, 0) + 1
        return counts

    def mode(self, name: str) -> Any:
        """Most frequent non-missing value of a column (ties -> first seen)."""
        counts = self.value_counts(name)
        if not counts:
            return None
        return max(counts.items(), key=lambda kv: kv[1])[0]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [r.to_dict() for r in self._records]

    @classmethod
    def from_dicts(
        cls,
        name: str,
        rows: Sequence[Mapping[str, Any]],
        schema: Schema | None = None,
        description: str = "",
    ) -> "Table":
        """Build a table from a list of dicts, inferring the schema if needed."""
        if schema is None:
            names: dict[str, None] = {}
            for row in rows:
                for key in row:
                    names.setdefault(key, None)
            schema = Schema([Attribute(n, _infer_type(rows, n)) for n in names])
        table = cls(name, schema, description=description)
        for row in rows:
            table.append({k: row.get(k) for k in schema.names})
        return table


def _infer_type(rows: Sequence[Mapping[str, Any]], name: str) -> AttributeType:
    """Very small type inference: numeric if every non-missing value is numeric."""
    saw_value = False
    for row in rows:
        value = row.get(name)
        if is_missing(value):
            continue
        saw_value = True
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            try:
                float(str(value))
            except (TypeError, ValueError):
                return AttributeType.TEXT
    return AttributeType.NUMERIC if saw_value else AttributeType.TEXT
