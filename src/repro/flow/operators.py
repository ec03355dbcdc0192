"""Table-level dataflow operators — the vocabulary of :class:`repro.flow.Pipeline`.

Each operator describes one whole-table manipulation over a
:class:`~repro.datalake.table.Table`:

* **LLM operators** (:class:`DetectErrors`, :class:`Impute`, :class:`Transform`,
  :class:`Resolve`, :class:`Extract`, :class:`Join`, :class:`Ask`) compile into
  :class:`~repro.api.specs.TaskSpec` work items — the unified request type of
  the client API — and know how to write the answered values back into the
  table;
* **relational operators** (:class:`Filter`, :class:`Select`,
  :class:`Partition`) run locally, without any LLM calls.

Operators are frozen dataclasses with a JSON wire form (``to_payload`` /
``from_payload`` through the :data:`OP_TYPES` registry), so a whole pipeline
can travel to the TCP service as one
:class:`~repro.api.pipeline_spec.PipelineSpec` request.  They also declare
which columns they read (:meth:`Operator.reads`) and write
(:meth:`Operator.writes`); the pipeline uses those sets for static column
lineage and the planner for dependency-aware wave scheduling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping, Sequence

from ..api.specs import (
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ExtractionSpec,
    ImputationSpec,
    JoinDiscoverySpec,
    TableQASpec,
    TaskSpec,
    TransformationSpec,
)
from ..datalake.table import Table, is_missing


class FlowError(ValueError):
    """A pipeline was mis-assembled or failed during execution."""


#: Wire ``op`` string -> operator class.  Populated by :func:`register_op`.
OP_TYPES: dict[str, type["Operator"]] = {}


def register_op(cls: type["Operator"]) -> type["Operator"]:
    """Class decorator adding an operator to the wire registry."""
    if not cls.op:
        raise ValueError(f"{cls.__name__} must define a non-empty op name")
    if cls.op in OP_TYPES:
        raise ValueError(f"duplicate operator registration for {cls.op!r}")
    OP_TYPES[cls.op] = cls
    return cls


def operator_from_payload(payload: Mapping[str, Any]) -> "Operator":
    """Build (and validate) the operator named by ``payload['op']``."""
    if not isinstance(payload, Mapping):
        raise FlowError("operator payload must be an object")
    op_name = payload.get("op")
    op_cls = OP_TYPES.get(op_name) if isinstance(op_name, str) else None
    if op_cls is None:
        raise FlowError(
            f"unknown operator {op_name!r}; expected one of {', '.join(OP_TYPES)}"
        )
    return op_cls.from_payload(payload)


@dataclass(frozen=True)
class WorkItem:
    """One compiled unit of LLM work: a spec plus where its answer lands."""

    spec: TaskSpec
    #: Target row index within the compiled partition; ``None`` for
    #: table-level items (Join decisions, Ask questions).
    row: int | None = None
    #: Operator-private payload (e.g. the candidate index for Resolve).
    extra: Any = None


# -------------------------------------------------------------------- helpers
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FlowError(message)


def _set(obj: "Operator", field: str, value: Any) -> None:
    """Normalise a field of a frozen operator during ``__post_init__``."""
    object.__setattr__(obj, field, value)


def _rows_of(value: Any) -> tuple[dict, ...]:
    """Coerce a Table or a sequence of mappings into plain wire rows."""
    if isinstance(value, Table):
        return tuple(value.to_dicts())
    _require(
        isinstance(value, Sequence) and not isinstance(value, (str, bytes)),
        "expected a Table or a list of row objects",
    )
    return tuple(dict(r) for r in value)


def _pk_of(table: Table) -> str | None:
    pk = table.schema.primary_key()
    return pk.name if pk is not None else None


# ----------------------------------------------------------------- base class
@dataclass(frozen=True)
class Operator:
    """Common behaviour of all flow operators."""

    #: Wire discriminator; set by each concrete subclass.
    op: ClassVar[str] = ""
    #: Whether the operator can run partition-at-a-time.  Whole-table
    #: operators (Join, Ask) are execution barriers: the streaming executor
    #: materialises the full table before running them.
    partitionable: ClassVar[bool] = True
    #: Whether the operator compiles to LLM task specs.
    needs_llm: ClassVar[bool] = True

    def __post_init__(self) -> None:
        self.validate()

    # -- contract ------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`FlowError` when the operator is malformed."""

    def reads(self) -> list[str]:
        """Columns the operator needs present in its input table."""
        return []

    def writes(self) -> list[str]:
        """Columns the operator writes (existing or new)."""
        return []

    def scans_all_columns(self) -> bool:
        """Whether compiled specs embed every column of the table.

        Evidence-carrying operators ship whole rows inside their specs
        (imputation evidence, detection context, QA tables, join probes), so
        for scheduling purposes they depend on *every* column — fusing them
        into a wave after any write would change the evidence a sequential
        execution would have shown them.
        """
        return False

    def columns_after(self, columns: Sequence[str]) -> list[str]:
        """The column set of the output table given the input columns."""
        out = list(columns)
        for name in self.writes():
            if name not in out:
                out.append(name)
        return out

    # -- LLM operators -------------------------------------------------------
    def compile(self, table: Table) -> list[WorkItem]:
        """Turn one table (partition) into the LLM work it implies.

        Args:
            table: The input partition in its current (post-upstream) state.

        Returns:
            One :class:`WorkItem` (row reference + task spec) per cell or
            row this operator must ask the LLM about; an empty list when
            the partition needs no work.

        Raises:
            NotImplementedError: On relational operators (``needs_llm`` is
                False); the executor calls :meth:`transform` instead.
        """
        raise NotImplementedError(f"{self.op} is not an LLM operator")

    def apply(
        self,
        table: Table,
        results: Sequence[tuple[WorkItem, Any]],
        answers: dict[str, Any],
    ) -> Table:
        """Write answered values back into the table.

        Args:
            table: The partition :meth:`compile` ran over.
            results: ``(work item, answered value)`` pairs, in compile
                order.
            answers: The run-wide table-level answer channel; barrier
                operators (Ask, Join) record their verdicts here.

        Returns:
            The updated partition (a new table; inputs are not mutated).
        """
        raise NotImplementedError(f"{self.op} is not an LLM operator")

    # -- relational operators ------------------------------------------------
    def transform(self, table: Table) -> Table:
        """Apply a pure relational operator (no LLM calls).

        Returns:
            The reshaped table.

        Raises:
            NotImplementedError: On LLM operators; the executor routes them
                through :meth:`compile` / :meth:`apply`.
        """
        raise NotImplementedError(f"{self.op} is an LLM operator")

    # -- wire form -----------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """The flat payload form (``op`` plus the operator's own fields)."""
        payload: dict[str, Any] = {"op": self.op}
        for op_field in dataclasses.fields(self):
            value = getattr(self, op_field.name)
            if value != op_field.default:
                payload[op_field.name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Operator":
        """Build the operator from a payload, ignoring unknown keys."""
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
            raise FlowError(f"'{missing[0]}' is required for the {cls.op} operator")
        return cls(**kwargs)

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({', '.join(self.writes() or self.reads())})"


# ------------------------------------------------------------- LLM operators
@register_op
@dataclass(frozen=True)
class Impute(Operator):
    """Fill the missing cells of ``column`` using the partition as evidence."""

    op: ClassVar[str] = "impute"

    column: str

    def validate(self) -> None:
        _require(bool(self.column), "impute needs a non-empty 'column'")

    def reads(self) -> list[str]:
        return [self.column]

    def writes(self) -> list[str]:
        return [self.column]

    def scans_all_columns(self) -> bool:
        return True  # whole rows travel as imputation evidence

    def compile(self, table: Table) -> list[WorkItem]:
        rows = table.to_dicts()
        pk = _pk_of(table)
        items = []
        for index, row in enumerate(rows):
            if is_missing(row.get(self.column)):
                items.append(
                    WorkItem(
                        ImputationSpec(
                            rows=rows,
                            target=row,
                            attribute=self.column,
                            table_name=table.name,
                            primary_key=pk,
                        ),
                        row=index,
                    )
                )
        return items

    def apply(self, table, results, answers):
        out = table.copy()
        for item, value in results:
            out[item.row][self.column] = value
        return out


@register_op
@dataclass(frozen=True)
class DetectErrors(Operator):
    """Flag suspicious values of ``column`` into a boolean flag column."""

    op: ClassVar[str] = "detect_errors"

    column: str
    flag_column: str = ""

    def validate(self) -> None:
        _require(bool(self.column), "detect_errors needs a non-empty 'column'")

    @property
    def target_column(self) -> str:
        return self.flag_column or f"{self.column}_error"

    def reads(self) -> list[str]:
        return [self.column]

    def writes(self) -> list[str]:
        return [self.target_column]

    def scans_all_columns(self) -> bool:
        return True  # whole rows travel as detection context

    def compile(self, table: Table) -> list[WorkItem]:
        rows = table.to_dicts()
        pk = _pk_of(table)
        items = []
        for index, row in enumerate(rows):
            if not is_missing(row.get(self.column)):
                items.append(
                    WorkItem(
                        ErrorDetectionSpec(
                            rows=rows,
                            target=row,
                            attribute=self.column,
                            table_name=table.name,
                            primary_key=pk,
                        ),
                        row=index,
                    )
                )
        return items

    def apply(self, table, results, answers):
        # Missing cells stay None in the flag column: there is no value to judge.
        out = table.with_column(self.target_column, default=None)
        for item, value in results:
            out[item.row][self.target_column] = bool(value)
        return out


@register_op
@dataclass(frozen=True)
class Transform(Operator):
    """Re-format every value of ``column`` following the example pairs."""

    op: ClassVar[str] = "transform"

    column: str
    examples: Sequence[Sequence[str]]
    output_column: str = ""

    def validate(self) -> None:
        _require(bool(self.column), "transform needs a non-empty 'column'")
        _require(
            isinstance(self.examples, Sequence)
            and not isinstance(self.examples, (str, bytes))
            and len(self.examples) > 0,
            "transform needs a non-empty list of [input, output] example pairs",
        )
        for pair in self.examples:
            _require(
                isinstance(pair, Sequence)
                and not isinstance(pair, (str, bytes))
                and len(pair) == 2,
                "each transform example must be an [input, output] pair",
            )
        _set(self, "examples", tuple((str(a), str(b)) for a, b in self.examples))

    @property
    def target_column(self) -> str:
        return self.output_column or self.column

    def reads(self) -> list[str]:
        return [self.column]

    def writes(self) -> list[str]:
        return [self.target_column]

    def compile(self, table: Table) -> list[WorkItem]:
        items = []
        for index, row in enumerate(table.to_dicts()):
            value = row.get(self.column)
            if not is_missing(value):
                items.append(
                    WorkItem(
                        TransformationSpec(value=str(value), examples=self.examples),
                        row=index,
                    )
                )
        return items

    def apply(self, table, results, answers):
        out = table
        if self.target_column not in table.schema:
            out = table.with_column(self.target_column, default=None)
        else:
            out = table.copy()
        for item, value in results:
            out[item.row][self.target_column] = value
        return out


@register_op
@dataclass(frozen=True)
class Extract(Operator):
    """Populate ``attribute`` from the documents held in ``document_column``."""

    op: ClassVar[str] = "extract"

    document_column: str
    attribute: str
    output_column: str = ""
    max_chunk_chars: int = 2000

    def validate(self) -> None:
        _require(bool(self.document_column), "extract needs a 'document_column'")
        _require(bool(str(self.attribute).strip()), "extract needs an 'attribute'")
        _require(
            isinstance(self.max_chunk_chars, int) and self.max_chunk_chars > 0,
            "'max_chunk_chars' must be a positive integer",
        )

    @property
    def target_column(self) -> str:
        return self.output_column or self.attribute

    def reads(self) -> list[str]:
        return [self.document_column]

    def writes(self) -> list[str]:
        return [self.target_column]

    def compile(self, table: Table) -> list[WorkItem]:
        items = []
        for index, row in enumerate(table.to_dicts()):
            document = row.get(self.document_column)
            if not is_missing(document):
                items.append(
                    WorkItem(
                        ExtractionSpec(
                            document=str(document),
                            attribute=self.attribute,
                            max_chunk_chars=self.max_chunk_chars,
                        ),
                        row=index,
                    )
                )
        return items

    def apply(self, table, results, answers):
        out = table.with_column(self.target_column, default=None)
        for item, value in results:
            out[item.row][self.target_column] = value
        return out


@register_op
@dataclass(frozen=True)
class Resolve(Operator):
    """Match each row against a reference table via entity resolution.

    For every row, candidates from ``against`` are compared one by one (in
    order); the first candidate the LLM judges to be the same entity supplies
    its ``key`` value for ``output_column`` (rows with no match get ``None``).
    """

    op: ClassVar[str] = "resolve"

    against: Any  # Table or list of row objects; normalised to wire rows.
    key: str
    output_column: str = "match"
    attributes: Sequence[str] | None = None
    max_candidates: int = 0

    def validate(self) -> None:
        _set(self, "against", _rows_of(self.against))
        _require(len(self.against) > 0, "resolve needs a non-empty 'against' table")
        _require(bool(self.key), "resolve needs the 'key' column of 'against'")
        for row in self.against:
            _require(
                self.key in row,
                f"'against' rows must carry the key column {self.key!r}",
            )
        _require(bool(self.output_column), "resolve needs an 'output_column'")
        if self.attributes is not None:
            _set(self, "attributes", tuple(str(a) for a in self.attributes))
        _require(
            isinstance(self.max_candidates, int) and self.max_candidates >= 0,
            "'max_candidates' must be a non-negative integer (0 = unlimited)",
        )

    def reads(self) -> list[str]:
        return list(self.attributes) if self.attributes else []

    def writes(self) -> list[str]:
        return [self.output_column]

    def scans_all_columns(self) -> bool:
        return self.attributes is None  # unscoped: whole rows are compared

    def _project(self, row: Mapping[str, Any]) -> dict[str, Any]:
        if self.attributes:
            return {k: row[k] for k in self.attributes if k in row}
        return dict(row)

    def compile(self, table: Table) -> list[WorkItem]:
        candidates = list(self.against)
        if self.max_candidates:
            candidates = candidates[: self.max_candidates]
        items = []
        for index, row in enumerate(table.to_dicts()):
            record_a = self._project(row)
            if not record_a:
                continue
            for rank, candidate in enumerate(candidates):
                record_b = self._project(candidate)
                if not record_b:
                    continue
                items.append(
                    WorkItem(
                        EntityResolutionSpec(record_a=record_a, record_b=record_b),
                        row=index,
                        extra=rank,
                    )
                )
        return items

    def apply(self, table, results, answers):
        out = table.with_column(self.output_column, default=None)
        # First matching candidate (in candidate order) wins, per row.
        best: dict[int, int] = {}
        for item, value in results:
            if value and (item.row not in best or item.extra < best[item.row]):
                best[item.row] = item.extra
        for row_index, rank in best.items():
            out[row_index][self.output_column] = self.against[rank][self.key]
        return out


@register_op
@dataclass(frozen=True)
class Join(Operator):
    """LLM-gated left join: discover joinability, then merge the columns.

    One join-discovery task decides whether ``on`` joins ``other[other_on]``
    (recorded in the flow's ``answers``); when joinable, the other table's
    columns are merged in by value equality.  The brought columns always enter
    the schema (``None`` when not joinable or unmatched) so downstream stages
    see a stable shape either way.
    """

    op: ClassVar[str] = "join"
    partitionable: ClassVar[bool] = False

    other: Any  # Table or list of row objects; normalised to wire rows.
    on: str
    other_on: str
    other_name: str = "other"
    columns: Sequence[str] | None = None
    prefix: str = ""
    n_probe_rows: int = 40
    n_sample_values: int = 6
    n_sample_records: int = 2
    seed: int = 0

    def validate(self) -> None:
        if isinstance(self.other, Table) and self.other_name == "other":
            _set(self, "other_name", self.other.name)
        _set(self, "other", _rows_of(self.other))
        _require(len(self.other) > 0, "join needs a non-empty 'other' table")
        _require(bool(self.on), "join needs the local column 'on'")
        _require(bool(self.other_on), "join needs the reference column 'other_on'")
        for row in self.other:
            _require(
                self.other_on in row,
                f"'other' rows must carry the join column {self.other_on!r}",
            )
        if self.columns is not None:
            _set(self, "columns", tuple(str(c) for c in self.columns))
            for name in self.columns:
                _require(
                    name in self.other[0],
                    f"join column {name!r} not present in the 'other' rows",
                )
        _require(
            type(self.n_probe_rows) is int and self.n_probe_rows > 0,
            "'n_probe_rows' must be a positive integer",
        )
        for name in ("n_sample_values", "n_sample_records", "seed"):
            value = getattr(self, name)
            _require(type(value) is int and value >= 0, f"'{name}' must be a non-negative integer")

    @property
    def brought_columns(self) -> list[str]:
        names = (
            list(self.columns)
            if self.columns is not None
            else [c for c in self.other[0] if c != self.other_on]
        )
        return [f"{self.prefix}{c}" for c in names]

    def _source_columns(self) -> list[str]:
        if self.columns is not None:
            return list(self.columns)
        return [c for c in self.other[0] if c != self.other_on]

    def reads(self) -> list[str]:
        return [self.on]

    def writes(self) -> list[str]:
        return self.brought_columns

    def scans_all_columns(self) -> bool:
        return True  # probe rows carry the full schema

    def compile(self, table: Table) -> list[WorkItem]:
        if len(table) == 0:
            return []
        return [
            WorkItem(
                JoinDiscoverySpec(
                    table_a={
                        "name": table.name,
                        "rows": table.to_dicts()[: self.n_probe_rows],
                    },
                    column_a=self.on,
                    table_b={
                        "name": self.other_name,
                        "rows": list(self.other[: self.n_probe_rows]),
                    },
                    column_b=self.other_on,
                    n_sample_values=self.n_sample_values,
                    n_sample_records=self.n_sample_records,
                    seed=self.seed,
                )
            )
        ]

    def apply(self, table, results, answers):
        joinable = bool(results[0][1]) if results else None
        answers[f"join:{self.on}~{self.other_name}.{self.other_on}"] = joinable
        out = table
        for name in self.brought_columns:
            out = out.with_column(name, default=None)
        if not joinable:
            return out
        # SQL NULL semantics: a missing key never joins, on either side.
        lookup: dict[Any, Mapping[str, Any]] = {}
        for row in self.other:
            if not is_missing(row[self.other_on]):
                lookup.setdefault(str(row[self.other_on]), row)
        sources = self._source_columns()
        for record in out:
            if is_missing(record[self.on]):
                continue
            match = lookup.get(str(record[self.on]))
            if match is None:
                continue
            for source, target in zip(sources, self.brought_columns):
                record[target] = match.get(source)
        return out


@register_op
@dataclass(frozen=True)
class Ask(Operator):
    """Answer a free-form question over the whole table (result in ``answers``)."""

    op: ClassVar[str] = "ask"
    partitionable: ClassVar[bool] = False

    question: str
    name: str = ""
    max_rows: int = 0

    def validate(self) -> None:
        _require(bool(str(self.question).strip()), "ask needs a non-empty 'question'")
        _require(
            isinstance(self.max_rows, int) and self.max_rows >= 0,
            "'max_rows' must be a non-negative integer (0 = whole table)",
        )

    @property
    def answer_key(self) -> str:
        return self.name or self.question

    def scans_all_columns(self) -> bool:
        return True  # the whole table is the question's context

    def compile(self, table: Table) -> list[WorkItem]:
        if len(table) == 0:
            return []
        rows = table.to_dicts()
        if self.max_rows:
            rows = rows[: self.max_rows]
        return [
            WorkItem(
                TableQASpec(
                    rows=rows,
                    question=self.question,
                    table_name=table.name,
                    primary_key=_pk_of(table),
                )
            )
        ]

    def apply(self, table, results, answers):
        answers[self.answer_key] = results[0][1] if results else None
        return table


# ------------------------------------------------------ relational operators
#: Predicates understood by :class:`Filter`.
FILTER_MODES = (
    "missing",
    "not_missing",
    "equals",
    "not_equals",
    "truthy",
    "falsy",
)


@register_op
@dataclass(frozen=True)
class Filter(Operator):
    """Keep the rows whose ``column`` satisfies a declarative predicate."""

    op: ClassVar[str] = "filter"
    needs_llm: ClassVar[bool] = False

    column: str
    mode: str = "not_missing"
    value: Any = None

    def validate(self) -> None:
        _require(bool(self.column), "filter needs a non-empty 'column'")
        _require(
            self.mode in FILTER_MODES,
            f"unknown filter mode {self.mode!r}; expected one of {', '.join(FILTER_MODES)}",
        )

    def reads(self) -> list[str]:
        return [self.column]

    def _keep(self, value: Any) -> bool:
        if self.mode == "missing":
            return is_missing(value)
        if self.mode == "not_missing":
            return not is_missing(value)
        if self.mode == "equals":
            return value == self.value
        if self.mode == "not_equals":
            return value != self.value
        if self.mode == "truthy":
            return bool(value)
        return not value  # falsy

    def transform(self, table: Table) -> Table:
        return table.select(lambda record: self._keep(record[self.column]))


@register_op
@dataclass(frozen=True)
class Select(Operator):
    """Project the table onto the given columns (in the given order)."""

    op: ClassVar[str] = "select"
    needs_llm: ClassVar[bool] = False

    columns: Sequence[str]

    def validate(self) -> None:
        _require(
            isinstance(self.columns, Sequence)
            and not isinstance(self.columns, (str, bytes))
            and len(self.columns) > 0,
            "select needs a non-empty list of column names",
        )
        _set(self, "columns", tuple(str(c) for c in self.columns))

    def reads(self) -> list[str]:
        return list(self.columns)

    def columns_after(self, columns: Sequence[str]) -> list[str]:
        return list(self.columns)

    def transform(self, table: Table) -> Table:
        return table.project(list(self.columns))


@register_op
@dataclass(frozen=True)
class Partition(Operator):
    """Set the streaming partition size for the downstream stages."""

    op: ClassVar[str] = "partition"
    needs_llm: ClassVar[bool] = False

    size: int

    def validate(self) -> None:
        _require(
            isinstance(self.size, int) and self.size >= 1,
            "partition needs a positive integer 'size'",
        )

    def transform(self, table: Table) -> Table:
        return table


__all__ = [
    "Ask",
    "DetectErrors",
    "Extract",
    "FILTER_MODES",
    "Filter",
    "FlowError",
    "Impute",
    "Join",
    "OP_TYPES",
    "Operator",
    "Partition",
    "Resolve",
    "Select",
    "Transform",
    "WorkItem",
    "operator_from_payload",
    "register_op",
]
