"""Declarative table-level pipelines over the unified task framework.

A :class:`Pipeline` is an ordered list of
:class:`~repro.flow.operators.Operator` stages applied to one
:class:`~repro.datalake.table.Table`::

    from repro.flow import DetectErrors, Impute, Pipeline, Transform

    flow = Pipeline(
        [
            DetectErrors("phone"),
            Impute("city"),
            Transform("phone", examples=[["212-555-0199", "(212) 555 0199"]]),
        ],
        partition_size=32,
    )
    result = flow.run(table, client=Client.local(seed=0))
    result.table           # the cleaned table
    result.report          # specs compiled / submitted / reused, per stage

Stages are validated statically against the input columns (each stage must
find the columns it reads; see :meth:`Pipeline.validate`), and
:meth:`Pipeline.lineage` reports, per output column, which stages produced
it.  Execution compiles stages into deduplicated batches of
:class:`~repro.api.specs.TaskSpec` requests and streams them through any
:class:`~repro.api.Client` — the same pipeline runs in-process or against a
remote service, or ships wholesale as one
:class:`~repro.api.pipeline_spec.PipelineSpec` request
(:meth:`Pipeline.submit`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..datalake.table import Table
from .executor import FlowExecutor, FlowResult
from .operators import FlowError, Operator, operator_from_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.client import Client


class Pipeline:
    """An ordered list of table-level operators, compiled and run as one plan."""

    def __init__(
        self,
        stages: Sequence[Operator],
        *,
        name: str = "flow",
        partition_size: int | None = None,
    ):
        stages = list(stages)
        if not stages:
            raise FlowError("a pipeline needs at least one stage")
        for stage in stages:
            if not isinstance(stage, Operator):
                raise FlowError(
                    f"stages must be flow operators, got {type(stage).__name__}"
                )
        if partition_size is not None and partition_size < 1:
            raise FlowError("partition_size must be a positive integer")
        self.stages = stages
        self.name = name
        self.partition_size = partition_size

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = " -> ".join(stage.op for stage in self.stages)
        return f"Pipeline({self.name!r}: {ops})"

    # ------------------------------------------------------------- validation
    def validate(self, columns: Sequence[str] | Table) -> list[str]:
        """Check column dependencies statically; return the output columns.

        Walks the stages in order, tracking the available column set: every
        stage must find the columns it reads (raising :class:`FlowError`
        naming the stage otherwise) and contributes the columns it writes.
        """
        if isinstance(columns, Table):
            columns = columns.schema.names
        available = list(columns)
        for index, stage in enumerate(self.stages):
            missing = [c for c in stage.reads() if c not in available]
            if missing:
                raise FlowError(
                    f"stage {index} ({stage.op}) reads column(s) "
                    f"{missing} not available at that point; "
                    f"available: {available}"
                )
            available = stage.columns_after(available)
        return available

    def lineage(self, columns: Sequence[str] | Table) -> dict[str, list[str]]:
        """Column provenance: which stages wrote each output column.

        Input columns start with a ``"source"`` entry; every stage that
        writes a column appends ``"<index>:<op>"``.  Columns projected away
        by a ``Select`` drop out of the result.
        """
        if isinstance(columns, Table):
            columns = columns.schema.names
        self.validate(columns)
        provenance: dict[str, list[str]] = {c: ["source"] for c in columns}
        available = list(columns)
        for index, stage in enumerate(self.stages):
            for column in stage.writes():
                provenance.setdefault(column, []).append(f"{index}:{stage.op}")
            available = stage.columns_after(available)
        return {c: provenance[c] for c in available}

    # -------------------------------------------------------------- execution
    def run(
        self,
        table: Table,
        client: "Client | None" = None,
        *,
        batch_size: int = 64,
        seed: int = 0,
    ) -> FlowResult:
        """Execute over ``table`` through a client (default: a local stack).

        The pipeline is compiled stage-by-stage into deduplicated spec
        batches and streamed through ``client.submit_many`` — a local client
        runs them on the in-process engine, a remote client ships the same
        batches to the TCP service, and a cluster client fans each wave out
        across its shards; in every case the pipeline sees identical
        request/response semantics.

        Args:
            table: The input table (validated statically before any LLM call).
            client: Any :class:`~repro.api.Client`; when omitted a local
                stack is assembled with ``seed`` and closed afterwards.
            batch_size: Specs per ``submit_many`` round, and the row budget
                of a partition group: consecutive partitions totalling at
                most this many rows move through each wave in one
                submission (a larger partition goes alone).
            seed: Seed of the implicit local stack (ignored with ``client``).

        Returns:
            A :class:`~repro.flow.executor.FlowResult`: the processed table,
            table-level answers, and the execution report.

        Raises:
            FlowError: When a stage reads a missing column (statically) or
                any submitted spec fails (naming the stage).
        """
        owns_client = client is None
        if client is None:
            from ..api.client import Client

            client = Client.local(seed=seed)
        try:
            executor = FlowExecutor(client.submit_many, batch_size=batch_size)
            return executor.run(self, table)
        finally:
            if owns_client:
                client.close()

    def submit(self, table: Table, client: "Client") -> FlowResult:
        """Ship the whole pipeline as one request; the service executes it.

        This is the plan-level submission path: a single
        :class:`~repro.api.pipeline_spec.PipelineSpec` travels over the wire
        and the serving side runs the full streaming executor next to its
        engine — one round trip regardless of table size or stage count.
        """
        from ..api.pipeline_spec import PipelineSpec
        from .executor import FlowReport

        pk = table.schema.primary_key()
        spec = PipelineSpec(
            rows=table.to_dicts(),
            stages=[stage.to_payload() for stage in self.stages],
            table_name=table.name,
            primary_key=pk.name if pk is not None else None,
            partition_size=self.partition_size,
            name=self.name,
        )
        result = client.submit(spec)
        payload = result.answer if isinstance(result.answer, Mapping) else {}
        rows = list(payload.get("rows", []))
        columns = list(payload.get("columns", []))
        if columns:  # the service echoes the output schema alongside the rows
            out = Table(table.name, [str(c) for c in columns])
            for row in rows:
                out.append({c: row.get(c) for c in columns})
        elif rows:  # older service: infer the schema from the rows
            out = Table.from_dicts(table.name, rows)
        else:
            out = Table(table.name, table.schema)
        return FlowResult(
            table=out,
            answers=dict(payload.get("answers", {})),
            report=FlowReport.from_payload(payload.get("report", {})),
        )

    # -------------------------------------------------------------- wire form
    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "stages": [stage.to_payload() for stage in self.stages],
        }
        if self.partition_size is not None:
            payload["partition_size"] = self.partition_size
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Pipeline":
        if not isinstance(payload, Mapping):
            raise FlowError("pipeline payload must be an object")
        stages_payload = payload.get("stages")
        if not isinstance(stages_payload, Sequence) or isinstance(
            stages_payload, (str, bytes)
        ) or not stages_payload:
            raise FlowError("pipeline payload needs a non-empty 'stages' list")
        stages = [operator_from_payload(stage) for stage in stages_payload]
        size = payload.get("partition_size")
        if size is not None and (not isinstance(size, int) or size < 1):
            raise FlowError("partition_size must be a positive integer")
        return cls(
            stages,
            name=str(payload.get("name", "flow")),
            partition_size=size,
        )


__all__ = ["Pipeline"]
