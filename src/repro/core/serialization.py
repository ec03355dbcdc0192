"""The ``serialize()`` function of the pipeline (Section 4.3).

Context records are losslessly encoded as ``attribute: value`` pairs before
being either fed directly to the LLM (FM-style) or rewritten into fluent text
by the context-parsing step.  The subject (primary key or first attribute) is
always serialized first so that downstream steps can recover "which entity a
row is about".
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..datalake.schema import Schema
from ..datalake.table import Record, is_missing


def _ordered_names(schema: Schema, attributes: Sequence[str] | None) -> list[str]:
    """The schema's attributes among ``attributes`` (all by default), subject first."""
    names = schema.names if attributes is None else [n for n in attributes if n in schema]
    pk = schema.primary_key()
    if pk is not None and pk.name in names:
        names = [pk.name] + [n for n in names if n != pk.name]
    return names


def _pairs(record: Record, ordered: Sequence[str], include_missing: bool) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for name in ordered:
        value = record[name]
        if not is_missing(value):
            pairs.append((name, str(value)))
        elif include_missing:
            pairs.append((name, "?"))
    return pairs


def record_pairs(
    record: Record,
    attributes: Sequence[str] | None = None,
    include_missing: bool = False,
) -> list[tuple[str, str]]:
    """The (attribute, value) pairs of a record, subject attribute first."""
    return _pairs(record, _ordered_names(record.schema, attributes), include_missing)


def _line(pairs: Sequence[tuple[str, str]], pair_separator: str = ", ") -> str:
    return pair_separator.join(f"{attr}: {value}" for attr, value in pairs)


def serialize_record(
    record: Record,
    attributes: Sequence[str] | None = None,
    include_missing: bool = False,
    pair_separator: str = ", ",
) -> str:
    """Serialize one record as ``"attr: value, attr: value"``."""
    return _line(record_pairs(record, attributes, include_missing), pair_separator)


def _record_lines(
    records: Sequence[Record], attributes: Sequence[str] | None, include_missing: bool
) -> Iterator[str]:
    """One line per record; the attribute order is derived per schema met, not per record."""
    schema: Schema | None = None
    ordered: list[str] = []
    for record in records:
        if record.schema is not schema:
            schema = record.schema
            ordered = _ordered_names(schema, attributes)
        yield _line(_pairs(record, ordered, include_missing))


def serialize_records(
    records: Sequence[Record],
    attributes: Sequence[str] | None = None,
    include_missing: bool = False,
) -> str:
    """Serialize several records, one per line (the ``V`` of Section 4.3)."""
    return "\n".join(_record_lines(records, attributes, include_missing))


def serialize_rows(rows: Sequence[Sequence[tuple[str, str]]]) -> str:
    """Serialize pre-built (attribute, value) rows, one per line."""
    return "\n".join(_line(row) for row in rows if row)


def numbered_instances(
    records: Sequence[Record],
    attributes: Sequence[str] | None = None,
) -> str:
    """Render candidate records as the numbered list used in prompt ``p_ri``."""
    return "\n".join(
        f"{index}) {line}"
        for index, line in enumerate(_record_lines(records, attributes, False), start=1)
    )
