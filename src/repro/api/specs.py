"""Typed task specifications — the request side of the unified client API.

Each of the paper's seven data-manipulation tasks gets a ``*Spec`` dataclass
holding plain JSON-able data (rows as lists of dicts, examples as value
pairs).  A spec knows how to

* validate itself (:meth:`TaskSpec.validate`, raising
  :class:`~repro.api.errors.InvalidRequestError` with the offending field),
* serialize to a wire payload (:meth:`TaskSpec.to_request`) and back
  (:meth:`TaskSpec.from_request`), round-tripping losslessly, and
* materialise the pipeline-side :class:`~repro.core.tasks.base.Task`
  (:meth:`TaskSpec.to_task`).

The module-level registry maps wire ``type`` strings to spec classes; it is
the single source of truth that the serving front-end, the client facade and
the CLI all consult — replacing the if/elif ladder the PR 1 service used
(which only understood four of the seven task types).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any, ClassVar

from ..core.tasks.base import Task
from ..core.tasks.entity_resolution import EntityResolutionTask
from ..core.tasks.error_detection import ErrorDetectionTask
from ..core.tasks.imputation import ImputationTask
from ..core.tasks.information_extraction import InformationExtractionTask
from ..core.tasks.join_discovery import JoinDiscoveryTask
from ..core.tasks.table_qa import TableQATask
from ..core.tasks.transformation import TransformationTask
from ..datalake.schema import Attribute, Schema
from ..datalake.table import Record, Table
from .errors import InvalidRequestError, UnknownTaskTypeError

#: Wire ``type`` string → spec class.  Populated by :func:`register_spec`.
SPEC_TYPES: dict[str, type["TaskSpec"]] = {}


def register_spec(cls: type["TaskSpec"]) -> type["TaskSpec"]:
    """Class decorator adding a spec to the wire-type registry."""
    if not cls.type:
        raise ValueError(f"{cls.__name__} must define a non-empty wire type")
    if cls.type in SPEC_TYPES:
        raise ValueError(f"duplicate spec registration for type {cls.type!r}")
    SPEC_TYPES[cls.type] = cls
    return cls


def task_types() -> list[str]:
    """The registered wire task types, in registration order."""
    return list(SPEC_TYPES)


def spec_from_request(payload: Mapping[str, Any]) -> "TaskSpec":
    """Build (and validate) the spec named by ``payload['type']``.

    This is the single dispatch point for every entry surface: the JSON
    service and the client facade.
    """
    if not isinstance(payload, Mapping):
        raise InvalidRequestError("request must be a JSON object")
    task_type = payload.get("type")
    spec_cls = SPEC_TYPES.get(task_type) if isinstance(task_type, str) else None
    if spec_cls is None:
        raise UnknownTaskTypeError(
            f"unknown task type {task_type!r}; expected one of {', '.join(SPEC_TYPES)}",
            field="type",
        )
    return spec_cls.from_request(payload)


# --------------------------------------------------------------------- helpers
def _require(condition: bool, message: str, field_name: str) -> None:
    if not condition:
        raise InvalidRequestError(message, field=field_name)


def _check_rows(rows: Any, field_name: str = "rows") -> list[str]:
    """Validate wire rows and return their column names.

    The first row defines the columns (the PR 1 contract); later rows may
    omit columns (missing cells become ``None``) but must not introduce new
    ones.  Key order is irrelevant.  Nothing is copied.
    """
    _require(
        isinstance(rows, Sequence) and not isinstance(rows, (str, bytes)) and len(rows) > 0,
        f"'{field_name}' must be a non-empty list of objects",
        field_name,
    )
    for row in rows:
        _require(
            isinstance(row, Mapping),
            f"'{field_name}' must be a non-empty list of objects",
            field_name,
        )
    names = list(rows[0])
    known = set(names)
    for row in rows[1:]:
        if not known.issuperset(row):  # the message is built for a bad row only
            unknown = sorted(map(str, set(row) - known))
            raise InvalidRequestError(
                f"row has attributes {unknown} outside the first row's columns {names}",
                field=field_name,
            )
    return names


def _check_table_fields(
    rows: Any,
    table_name: Any,
    primary_key: str | None,
    field_name: str = "rows",
) -> list[str]:
    """Shared validation of a (rows, table_name, primary_key) triple."""
    names = _check_rows(rows, field_name)
    _require(bool(str(table_name)), "'table_name' must be non-empty", "table_name")
    key = primary_key if primary_key is not None else names[0]
    _require(
        key in names,
        f"primary_key {key!r} not among columns {names}",
        "primary_key",
    )
    return names


def _table_from_rows(
    rows: Sequence[Mapping[str, Any]],
    table_name: str,
    primary_key: str | None,
) -> Table:
    """Build a :class:`Table` from pre-validated wire rows.

    ``_check_rows`` has checked every row's columns against the first's, so
    each row goes in by position (a missing cell is ``None``): no copy of
    the row, and no per-key check in ``Record``.
    """
    names = list(rows[0])
    key = primary_key if primary_key is not None else names[0]
    schema = Schema([Attribute(name, primary_key=(name == key)) for name in names])
    return Table(str(table_name), schema, [[row.get(name) for name in names] for row in rows])


def _record_for(table: Table, values: Any, field_name: str) -> Record:
    _require(
        isinstance(values, Mapping),
        f"'{field_name}' must be an object of known attribute values",
        field_name,
    )
    return Record(table.schema, {k: v for k, v in values.items() if k in table.schema})


# ------------------------------------------------------------------ base class
@dataclass(frozen=True)
class TaskSpec:
    """Common behaviour of the seven typed task specifications."""

    #: Wire discriminator; set by each concrete subclass.
    type: ClassVar[str] = ""

    def __post_init__(self) -> None:
        self.validate()

    # -- contract ------------------------------------------------------------
    def validate(self) -> None:
        """Check the spec's fields; runs automatically on construction.

        Raises:
            InvalidRequestError: When any field is malformed; ``field``
                on the error names the offending key.
        """

    def to_task(self) -> Task:
        """Materialise the pipeline task this spec describes.

        Returns:
            The :class:`~repro.core.tasks.base.Task` the execution engine
            runs for this spec.
        """
        raise NotImplementedError

    # -- wire form -----------------------------------------------------------
    def to_request(self) -> dict[str, Any]:
        """Serialize to the flat wire payload.

        Returns:
            ``{"type": ..., **fields}`` with default-valued fields omitted;
            feeding it back through :func:`spec_from_request` round-trips
            losslessly.  This canonical form is also what the flow planner
            dedups on and the cluster router hashes for placement.
        """
        payload: dict[str, Any] = {"type": self.type}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                payload[spec_field.name] = value
        return payload

    @classmethod
    def from_request(cls, payload: Mapping[str, Any]) -> "TaskSpec":
        """Build the spec from a payload, ignoring envelope/unknown keys.

        Args:
            payload: The flat wire form (``type`` plus task fields).

        Returns:
            A validated spec instance.

        Raises:
            InvalidRequestError: When a required field is missing or any
                present field fails validation.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        missing = [
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            and f.name not in kwargs
        ]
        if missing:
            raise InvalidRequestError(
                f"'{missing[0]}' is required for {cls.type} requests", field=missing[0]
            )
        return cls(**kwargs)


# ------------------------------------------------------------- concrete specs
@register_spec
@dataclass(frozen=True)
class ImputationSpec(TaskSpec):
    """Impute ``target[attribute]`` using ``rows`` as the evidence table."""

    type: ClassVar[str] = "imputation"

    rows: Sequence[Mapping[str, Any]]
    target: Mapping[str, Any]
    attribute: str
    table_name: str = "request"
    primary_key: str | None = None

    def validate(self) -> None:
        names = _check_table_fields(self.rows, self.table_name, self.primary_key)
        _require(isinstance(self.target, Mapping), "'target' must be an object of known attribute values", "target")
        _require(bool(self.attribute), "'attribute' is required", "attribute")
        _require(
            str(self.attribute) in names,
            f"attribute {self.attribute!r} not among columns {names}",
            "attribute",
        )

    def to_task(self) -> ImputationTask:
        table = _table_from_rows(self.rows, self.table_name, self.primary_key)
        record = _record_for(table, self.target, "target")
        return ImputationTask(table, record, str(self.attribute))


@register_spec
@dataclass(frozen=True)
class TransformationSpec(TaskSpec):
    """Transform ``value`` following the pattern of the example pairs."""

    type: ClassVar[str] = "transformation"

    #: ``value`` is optional and defaults to "".
    value: str = ""
    examples: Sequence[Sequence[str]] = ()
    name: str = ""

    def validate(self) -> None:
        _require(
            isinstance(self.examples, Sequence)
            and not isinstance(self.examples, (str, bytes))
            and len(self.examples) > 0,
            "'examples' must be a non-empty list of [input, output] pairs",
            "examples",
        )
        for pair in self.examples:
            _require(
                isinstance(pair, Sequence)
                and not isinstance(pair, (str, bytes))
                and len(pair) == 2,
                "each entry of 'examples' must be an [input, output] pair",
                "examples",
            )

    def to_task(self) -> TransformationTask:
        pairs = [(str(src), str(dst)) for src, dst in self.examples]
        return TransformationTask(str(self.value), pairs, name=self.name)


@register_spec
@dataclass(frozen=True)
class ExtractionSpec(TaskSpec):
    """Extract ``attribute`` from one semi-structured ``document``."""

    type: ClassVar[str] = "extraction"

    #: ``document`` is optional and defaults to "".
    document: str = ""
    attribute: str = ""
    max_chunk_chars: int = 2000

    def validate(self) -> None:
        _require(
            bool(str(self.attribute).strip()), "'attribute' must be non-empty", "attribute"
        )
        _require(
            isinstance(self.max_chunk_chars, int) and self.max_chunk_chars > 0,
            "'max_chunk_chars' must be a positive integer",
            "max_chunk_chars",
        )

    def to_task(self) -> InformationExtractionTask:
        return InformationExtractionTask(
            str(self.document), str(self.attribute), max_chunk_chars=self.max_chunk_chars
        )


@register_spec
@dataclass(frozen=True)
class TableQASpec(TaskSpec):
    """Answer a free-form ``question`` over the table given by ``rows``."""

    type: ClassVar[str] = "table_qa"

    rows: Sequence[Mapping[str, Any]]
    question: str
    table_name: str = "request"
    primary_key: str | None = None

    def validate(self) -> None:
        _check_table_fields(self.rows, self.table_name, self.primary_key)
        _require(bool(str(self.question).strip()), "'question' must be non-empty", "question")

    def to_task(self) -> TableQATask:
        table = _table_from_rows(self.rows, self.table_name, self.primary_key)
        return TableQATask(table, str(self.question))


@register_spec
@dataclass(frozen=True)
class EntityResolutionSpec(TaskSpec):
    """Decide whether ``record_a`` and ``record_b`` name the same entity."""

    type: ClassVar[str] = "entity_resolution"

    record_a: Mapping[str, Any]
    record_b: Mapping[str, Any]
    attributes: Sequence[str] | None = None

    def validate(self) -> None:
        for field_name, record in (("record_a", self.record_a), ("record_b", self.record_b)):
            _require(
                isinstance(record, Mapping) and len(record) > 0,
                f"'{field_name}' must be a non-empty object of attribute values",
                field_name,
            )
        if self.attributes is not None:
            _require(
                isinstance(self.attributes, Sequence)
                and not isinstance(self.attributes, (str, bytes)),
                "'attributes' must be a list of attribute names",
                "attributes",
            )
            for name in self.attributes:
                _require(
                    name in self.record_a and name in self.record_b,
                    f"attribute {name!r} missing from one of the records",
                    "attributes",
                )

    def to_task(self) -> EntityResolutionTask:
        record_a = Record(Schema(list(self.record_a)), dict(self.record_a))
        record_b = Record(Schema(list(self.record_b)), dict(self.record_b))
        attributes = list(self.attributes) if self.attributes is not None else None
        return EntityResolutionTask(record_a, record_b, attributes=attributes)


@register_spec
@dataclass(frozen=True)
class ErrorDetectionSpec(TaskSpec):
    """Decide whether ``target[attribute]`` is erroneous, given ``rows``."""

    type: ClassVar[str] = "error_detection"

    rows: Sequence[Mapping[str, Any]]
    target: Mapping[str, Any]
    attribute: str
    table_name: str = "request"
    primary_key: str | None = None

    def validate(self) -> None:
        names = _check_table_fields(self.rows, self.table_name, self.primary_key)
        _require(isinstance(self.target, Mapping), "'target' must be an object of known attribute values", "target")
        _require(bool(self.attribute), "'attribute' is required", "attribute")
        _require(
            str(self.attribute) in names,
            f"attribute {self.attribute!r} not among columns {names}",
            "attribute",
        )
        _require(
            str(self.attribute) in self.target,
            f"'target' must carry a value for attribute {self.attribute!r}",
            "target",
        )

    def to_task(self) -> ErrorDetectionTask:
        table = _table_from_rows(self.rows, self.table_name, self.primary_key)
        record = _record_for(table, self.target, "target")
        return ErrorDetectionTask(table, record, str(self.attribute))


@register_spec
@dataclass(frozen=True)
class JoinDiscoverySpec(TaskSpec):
    """Decide whether ``table_a.column_a`` joins with ``table_b.column_b``.

    The two tables travel inline as ``{"name": ..., "rows": [...]}`` objects,
    mirroring how join candidates are shipped out of a lake catalogue.
    """

    type: ClassVar[str] = "join_discovery"

    table_a: Mapping[str, Any]
    column_a: str
    table_b: Mapping[str, Any]
    column_b: str
    n_sample_values: int = 6
    n_sample_records: int = 2
    seed: int = 0

    def validate(self) -> None:
        for field_name, payload, column in (
            ("table_a", self.table_a, self.column_a),
            ("table_b", self.table_b, self.column_b),
        ):
            _require(
                isinstance(payload, Mapping) and "rows" in payload,
                f"'{field_name}' must be an object with 'name' and 'rows'",
                field_name,
            )
            table_name = str(payload.get("name", field_name))
            _require(bool(table_name), f"'{field_name}.name' must be non-empty", field_name)
            names = _check_rows(payload["rows"], field_name=f"{field_name}.rows")
            column_field = "column_a" if field_name == "table_a" else "column_b"
            _require(bool(column), f"'{column_field}' is required", column_field)
            _require(
                str(column) in names,
                f"column {column!r} not in table {table_name!r}",
                column_field,
            )
        for field_name in ("n_sample_values", "n_sample_records", "seed"):
            value = getattr(self, field_name)
            _require(
                type(value) is int and value >= 0,
                f"'{field_name}' must be a non-negative integer",
                field_name,
            )

    def _tables(self) -> tuple[Table, Table]:
        return (
            Table.from_dicts(
                str(self.table_a.get("name", "table_a")), [dict(r) for r in self.table_a["rows"]]
            ),
            Table.from_dicts(
                str(self.table_b.get("name", "table_b")), [dict(r) for r in self.table_b["rows"]]
            ),
        )

    def to_task(self) -> JoinDiscoveryTask:
        table_a, table_b = self._tables()
        return JoinDiscoveryTask(
            table_a,
            str(self.column_a),
            table_b,
            str(self.column_b),
            n_sample_values=self.n_sample_values,
            n_sample_records=self.n_sample_records,
            seed=self.seed,
        )


__all__ = [
    "SPEC_TYPES",
    "EntityResolutionSpec",
    "ErrorDetectionSpec",
    "ExtractionSpec",
    "ImputationSpec",
    "JoinDiscoverySpec",
    "TableQASpec",
    "TaskSpec",
    "TransformationSpec",
    "register_spec",
    "spec_from_request",
    "task_types",
]
