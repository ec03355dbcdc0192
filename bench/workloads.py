"""Workloads: what is sent, in which shape, and what a right answer looks like.

Everything here is a pure function of ``(seed, index)``: the server only
ever receives generated requests, the same seed produces byte-identical
requests, and two seeds share no spec.

Specs cycle round-robin over the seven task types, drawn over
``N_TABLES`` synthetic tables of ``N_ROWS`` rows x ``len(COLUMNS)`` columns.
The table-carrying types ship their 24-row evidence table inline (~2.5 KB a
request), the others a few hundred bytes, so the mix exercises both ends of
the payload range the api/transport layers see.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.api import (
    Client,
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ExtractionSpec,
    ImputationSpec,
    JoinDiscoverySpec,
    PipelineSpec,
    TableQASpec,
    TaskResult,
    TaskSpec,
    TransformationSpec,
    encode_request,
)
from repro.flow import DetectErrors, Impute, Pipeline, Transform
from repro.serving.transport import encode_frame

from .stub import ApiStubLLM

# ------------------------------------------------------------------ the data
TASK_TYPES = (
    "imputation",
    "transformation",
    "error_detection",
    "entity_resolution",
    "extraction",
    "table_qa",
    "join_discovery",
)

#: Types whose answer does not depend on the order requests reach the server
#: (the other two draw their candidate pool from the pipeline's shared rng).
ORDER_INDEPENDENT = frozenset(
    {"transformation", "entity_resolution", "extraction", "table_qa", "join_discovery"}
)

#: ``result.task_type`` per wire type.
TASK_TYPE_NAMES = {
    "imputation": "data imputation",
    "transformation": "data transformation",
    "error_detection": "error detection",
    "entity_resolution": "entity resolution",
    "extraction": "information extraction",
    "table_qa": "table question answering",
    "join_discovery": "join discovery",
}

#: LLM calls one spec of each type makes (``result.calls``; cache hits count).
EXPECTED_CALLS = {
    "imputation": 5,
    "transformation": 3,
    "error_detection": 5,
    "entity_resolution": 2,
    "extraction": 2,
    "table_qa": 3,
    "join_discovery": 3,
}

N_TABLES = 8
N_ROWS = 24
COLUMNS = ("name", "city", "phone", "cuisine", "price")

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "wen", "zar", "bel", "dun")
_CUISINES = ("thai", "diner", "sushi", "tapas", "grill", "vegan")
_PHONE_EXAMPLES = [["212-555-0199", "(212) 555 0199"], ["415-555-0134", "(415) 555 0134"]]
_DATE_EXAMPLES = [["20000101", "2000-01-01"], ["19871130", "1987-11-30"]]

#: Codomain of the stub for a free-text answer (see :func:`bench.stub.reply`).
_STUB_WORD = re.compile(r"^w[0-9a-f]{12}$")


def _word(rng: random.Random, syllables: int = 3) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def _phone(rng: random.Random) -> str:
    return f"{rng.randrange(200, 999)}-555-{rng.randrange(10000):04d}"


def _row(rng: random.Random, name: str) -> dict[str, Any]:
    return {
        "name": name,
        "city": _word(rng, 2),
        "phone": _phone(rng),
        "cuisine": rng.choice(_CUISINES),
        "price": f"${rng.randrange(8, 80)}",
    }


def make_tables(seed: int) -> list[list[dict[str, Any]]]:
    """The ``N_TABLES`` evidence tables of one seed."""
    tables = []
    for table_index in range(N_TABLES):
        rng = random.Random(f"table:{seed}:{table_index}")
        tables.append(
            [_row(rng, f"{_word(rng)} {row_index}") for row_index in range(N_ROWS)]
        )
    return tables


def spec_at(tables: Sequence[list[dict[str, Any]]], seed: int, index: int) -> TaskSpec:
    """Spec number ``index`` of ``seed``: unique, and of type ``index % 7``."""
    kind = TASK_TYPES[index % len(TASK_TYPES)]
    table_index = (index // len(TASK_TYPES)) % N_TABLES
    rows = tables[table_index]
    rng = random.Random(f"spec:{seed}:{index}")
    tag = f"s{seed}x{index}"
    table_name = f"lake{table_index}"
    if kind == "imputation":
        target = _row(rng, f"{_word(rng)} {tag}")
        target["city"] = None
        return ImputationSpec(
            rows=rows, target=target, attribute="city", table_name=table_name
        )
    if kind == "transformation":
        value = f"{rng.randrange(1950, 2030)}{rng.randrange(1, 13):02d}{rng.randrange(1, 29):02d}"
        return TransformationSpec(value=f"{value} {tag}", examples=_DATE_EXAMPLES)
    if kind == "error_detection":
        target = _row(rng, f"{_word(rng)} {tag}")
        return ErrorDetectionSpec(
            rows=rows, target=target, attribute="city", table_name=table_name
        )
    if kind == "entity_resolution":
        record_a = _row(rng, f"{_word(rng)} {tag}")
        record_b = dict(record_a, name=record_a["name"].upper(), phone=_phone(rng))
        return EntityResolutionSpec(record_a=record_a, record_b=record_b)
    if kind == "extraction":
        row = _row(rng, f"{_word(rng)} {tag}")
        document = (
            f"<p>{row['name']} is a {row['cuisine']} place in {row['city']}.</p> "
            f"<p>Call {row['phone']}; mains from {row['price']}.</p> "
            f"<p>{' '.join(_word(rng) for _ in range(24))}</p>"
        )
        return ExtractionSpec(document=document, attribute=rng.choice(COLUMNS[1:]))
    if kind == "table_qa":
        subject = rng.choice(rows)["name"]
        return TableQASpec(
            rows=rows,
            question=f"What is the {rng.choice(COLUMNS[1:])} of {subject}? ({tag})",
            table_name=table_name,
        )
    other = tables[(table_index + 1) % N_TABLES]
    half = N_ROWS // 2
    return JoinDiscoverySpec(
        table_a={"name": f"left_{tag}", "rows": rows[:half]},
        column_a="city",
        table_b={"name": f"right_{tag}", "rows": other[:half]},
        column_b="city",
    )


# ------------------------------------------------------------- the pipelines
PIPELINE_LISTINGS = 16
PIPELINE_DUPLICATES = 3
PIPELINE_STAGES = 3


def pipeline_at(seed: int, index: int, listings: int = PIPELINE_LISTINGS) -> PipelineSpec:
    """Pipeline number ``index`` of ``seed``: a duplicated lake table.

    ``listings`` distinct rows appear ``PIPELINE_DUPLICATES`` times each (48
    rows by default).  Every city is missing and every phone present, so each
    of the three stages compiles one work item per row (``report.specs ==
    3 x rows``).  Where the copies fall is fixed, so that what the planner
    can deduplicate does not depend on the seed: three listings in eight have
    two copies in one partition (their row-level specs coincide), the rest
    one copy in each.  The seed decides the values and the order of rows
    within a partition.
    """
    rng = random.Random(f"pipeline:{seed}:{index}")
    tag = f"s{seed}p{index}"
    partitions: list[list[dict[str, Any]]] = [[] for _ in range(PIPELINE_DUPLICATES)]
    doubled = listings * 3 // 8
    for listing in range(listings):
        row = _row(rng, f"{_word(rng)} {tag} {listing}")
        row["city"] = None
        home = listing % PIPELINE_DUPLICATES
        if listing < doubled:
            targets = [home] * (PIPELINE_DUPLICATES - 1) + [(home + 1) % PIPELINE_DUPLICATES]
        else:
            targets = range(PIPELINE_DUPLICATES)
        for target in targets:
            partitions[target].append(dict(row))
    for partition in partitions:
        rng.shuffle(partition)
    rows = [row for partition in partitions for row in partition]
    flow = Pipeline(
        [
            DetectErrors("phone"),
            Impute("city"),
            Transform("phone", examples=_PHONE_EXAMPLES, output_column="intl"),
        ],
        partition_size=listings,
    )
    return PipelineSpec(
        rows=rows,
        stages=flow.to_payload()["stages"],
        table_name=f"lake_{tag}",
        partition_size=listings,
    )


# ------------------------------------------------------------- the workloads
@dataclass(frozen=True)
class Workload:
    """One traffic shape.  ``why`` is echoed into ``BENCHMARK.json``."""

    name: str
    why: str
    #: ``"service"``: one ``build_service`` stack; ``"cluster"``: a 4-thread-
    #: worker ``Router.local`` behind the same wire server.
    mode: str = "service"
    #: Specs per client call: 1 is ``submit``, more is ``submit_many``.
    call_size: int = 1
    #: Backend round-trip latency in seconds.
    latency: float = 0.010
    #: Whether the server gets a persistent cache directory.
    persistent: bool = False
    #: Replayed working set (specs); ``None`` sends every spec once.
    working_set: int | None = None
    #: Never-seen specs added to each call of a working set: real replay
    #: traffic has a share of novelty, it keeps the cache's write path in use
    #: next to its read path, and it is a floor under the backend-call counts
    #: (a metric that can reach 0 cannot carry a relative bound).
    fresh_per_call: int = 0
    #: Calls per client before the timed window opens (ignored for a working
    #: set, whose warm-up is one full pass).
    warmup_calls: int = 2
    #: Whether a window holds enough calls (>= 200) for a p95 to mean
    #: something: ten samples beyond it.  Elsewhere ``latency_p95_ms``
    #: repeats the median (every workload must emit every metric).
    p95_supported: bool = False
    #: Distinct listings of each :func:`pipeline_at` plan (0: calls carry
    #: task specs, not plans).
    pipeline_listings: int = 0

    @property
    def pipelines(self) -> bool:
        return self.pipeline_listings > 0

    def sized(self, smoke: bool) -> "Workload":
        """The workload itself, or its ``--smoke`` miniature."""
        if not smoke:
            return self
        return replace(
            self,
            working_set=self.working_set and SMOKE_WORKING_SET,
            pipeline_listings=self.pipeline_listings and SMOKE_PIPELINE_LISTINGS,
        )


#: The load side: one process, this many threads, one connection each.
CLIENTS = 2
#: Engine defaults of the server under test.
MAX_BATCH_SIZE = 8
ENGINE_WORKERS = 8
LLM_THREADS = 1
CLUSTER_WORKERS = 4
SMOKE_WORKING_SET = 64
SMOKE_PIPELINE_LISTINGS = 4

WORKLOADS = (
    Workload(
        name="interactive",
        why=(
            "2 clients, submit() of one unique spec per call, 10 ms backend: per-request "
            "fixed costs (wire round trip, batch lock, a fresh event loop per call) decide; "
            "in-batch coalescing cannot help"
        ),
        warmup_calls=14,
        p95_supported=True,
    ),
    Workload(
        name="bulk",
        why=(
            "2 clients, submit_many of 16 unique specs, persistent cache on a fresh dir, "
            "10 ms backend: engine, batcher coalescing and the cache write path decide; "
            "backend-latency-bound"
        ),
        call_size=16,
        persistent=True,
    ),
    Workload(
        name="overhead",
        why=(
            "2 clients, submit_many of 32, backend latency 0, no persistent cache: stack CPU "
            "is everything, so batching or overlap changes predict no change here"
        ),
        call_size=32,
        latency=0.0,
    ),
    Workload(
        name="replay",
        why=(
            "256-spec working set replayed (32 a call + 4 new specs) on a pre-filled persistent "
            "cache opened by a fresh process, 10 ms backend: the cache read path, and whether "
            "a result is a function of its spec"
        ),
        call_size=32,
        persistent=True,
        working_set=256,
        fresh_per_call=4,
    ),
    Workload(
        name="pipeline_cluster",
        why=(
            "2 clients, one 48-row 3-stage PipelineSpec per call to a 4-worker Router, 10 ms "
            "backend per worker: flow dedup, waves, hash routing and worker overlap decide; "
            "the spec-level service path does little"
        ),
        mode="cluster",
        pipeline_listings=PIPELINE_LISTINGS,
        warmup_calls=1,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: Specs checked against the sequential oracle (ten of each type).
ORACLE_SAMPLE = 70


class CallPlan:
    """Which specs client ``client`` sends in its ``n``-th call.

    Without a working set every call carries fresh specs: the index space is
    dealt to the clients call by call, so the two streams never overlap and
    a run of any length is a prefix of the same infinite sequence.  With a
    working set the set is cut into calls once and each client cycles over
    its share.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self._tables = make_tables(seed)
        self._cache: dict[int, TaskSpec] = {}

    @property
    def warmup_calls(self) -> int:
        workload = self.workload
        if workload.working_set is None:
            return workload.warmup_calls
        return workload.working_set // workload.call_size // CLIENTS

    def spec(self, index: int) -> TaskSpec:
        """Spec ``index``: kept if it will be sent again, else made on demand."""
        spec = self._cache.get(index)
        if spec is None:
            spec = self._make(index)
            working_set = self.workload.working_set
            if working_set is not None and index < working_set:
                self._cache[index] = spec
        return spec

    def _make(self, index: int) -> TaskSpec:
        if self.workload.pipelines:
            return pipeline_at(self.seed, index, self.workload.pipeline_listings)
        return spec_at(self._tables, self.seed, index)

    def indices(self, client: int, n: int) -> list[int]:
        """Spec indices of call ``n`` (warm-up calls included) of ``client``."""
        workload = self.workload
        size = workload.call_size
        call = n * CLIENTS + client
        if workload.working_set is None:
            return list(range(call * size, (call + 1) * size))
        chunk = call % (workload.working_set // size)
        fresh = workload.working_set + call * workload.fresh_per_call
        return [
            *range(chunk * size, (chunk + 1) * size),
            *range(fresh, fresh + workload.fresh_per_call),
        ]

    def prepare(self, calls_per_client: int) -> None:
        """Generate ahead the specs of the first calls (set-up, not the window)."""
        for client in range(CLIENTS):
            for n in range(calls_per_client):
                for index in self.indices(client, n):
                    self._cache[index] = self._make(index)

    def oracle_indices(self) -> list[int]:
        """The first ``ORACLE_SAMPLE`` spec indices sent after the warm-up."""
        if self.workload.pipelines:
            return []
        first = 0
        if self.workload.working_set is None:
            first = self.warmup_calls * CLIENTS * self.workload.call_size
        return list(range(first, first + ORACLE_SAMPLE))


def encoded_requests(specs: Sequence[TaskSpec]) -> list[bytes]:
    """The wire frames of ``specs`` (ids by position, a fixed trace id)."""
    return [
        encode_frame(encode_request(spec, position, trace="0" * 16))
        for position, spec in enumerate(specs)
    ]


# ------------------------------------------------------------ the right answer
def build_oracle(plan: CallPlan) -> dict[int, Any]:
    """Answers of the oracle sample, run one by one over a fresh stub.

    Only order-independent types are kept: their answer is a pure function
    of the spec, so whatever the server did before, it must agree.
    """
    oracle: dict[int, Any] = {}
    with Client.local(
        llm=ApiStubLLM(), batch_size=MAX_BATCH_SIZE, workers=ENGINE_WORKERS
    ) as client:
        for index in plan.oracle_indices():
            spec = plan.spec(index)
            if spec.type in ORDER_INDEPENDENT:
                oracle[index] = client.submit(spec).answer
    return oracle


#: "No oracle answer for this spec" (``None`` is a possible answer).
NO_ORACLE = object()


def check_result(
    spec: TaskSpec, result: TaskResult, expected_id: int, oracle: Any = NO_ORACLE
) -> str | None:
    """Why ``result`` is a wrong answer to ``spec``, or ``None`` when right."""
    if result.error is not None:
        return f"error response: {result.error.code}: {result.error.message}"
    if result.id != expected_id:
        return f"id {result.id!r} echoed for request {expected_id}"
    if isinstance(spec, PipelineSpec):
        return _check_pipeline(spec, result)
    if result.task_type != TASK_TYPE_NAMES[spec.type]:
        return f"task type {result.task_type!r} for a {spec.type} spec"
    expected_calls = EXPECTED_CALLS[spec.type]
    if result.calls != expected_calls:
        return f"{result.calls} LLM calls for a {spec.type} spec, expected {expected_calls}"
    answer = result.answer
    if oracle is not NO_ORACLE and answer != oracle:
        return f"answer {answer!r} differs from the oracle's {oracle!r}"
    if spec.type in ("error_detection", "entity_resolution", "join_discovery"):
        if not isinstance(answer, bool):
            return f"answer {answer!r} is not a yes/no judgement"
    elif not (isinstance(answer, str) and _STUB_WORD.match(answer)):
        return f"answer {answer!r} is outside the stub's codomain"
    return None


def _check_pipeline(spec: PipelineSpec, result: TaskResult) -> str | None:
    if result.task_type != "pipeline":
        return f"task type {result.task_type!r} for a pipeline spec"
    answer = result.answer
    if not isinstance(answer, dict) or not isinstance(answer.get("report"), dict):
        return "pipeline answer carries no report"
    report = answer["report"]
    rows = len(spec.rows)
    if report.get("rows_in") != rows or report.get("rows_out") != rows:
        return f"rows_in/rows_out {report.get('rows_in')}/{report.get('rows_out')} for {rows} rows"
    if len(answer.get("rows", ())) != rows:
        return f"{len(answer.get('rows', ()))} rows returned for {rows} sent"
    if "intl" not in answer.get("columns", ()):
        return "the transform stage's 'intl' column is missing"
    if report.get("specs") != PIPELINE_STAGES * rows:
        return f"report.specs {report.get('specs')} != {PIPELINE_STAGES} x {rows} rows"
    return None


def specs_in(spec: TaskSpec, result: TaskResult) -> int:
    """How many specs a correct answer stands for (a plan: its work items)."""
    if isinstance(spec, PipelineSpec):
        return int(result.answer["report"]["specs"])
    return 1
