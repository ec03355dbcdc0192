"""Property: pipeline execution == sequential per-row ``run_task`` execution.

For every flow operator, executing a (possibly partitioned) pipeline through
the flow executor — with its cross-stage deduplication, wave fusion and
batched submission — must produce exactly the table a naive per-row loop
produces: compile each stage over each partition, run every work item's task
one at a time through ``Client.run_task``, write the answers back.

Identity is only well-defined when execution is a pure function of each
task.  The pipeline is (each task seeds its own retrieval rng, which is what
makes skipping a duplicate task — dedup — invisible to the tasks after it),
so the full configuration runs here; the LLM is made a pure function of the
prompt (no noise stream).
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Client
from repro.core import UniDMConfig
from repro.datalake import Table
from repro.flow import (
    Ask,
    DetectErrors,
    Extract,
    Filter,
    FlowExecutor,
    Impute,
    Join,
    Partition,
    Pipeline,
    Resolve,
    Select,
    Transform,
)
from repro.flow.executor import _chunks, _segments
from repro.llm.base import LanguageModel

SETTINGS = settings(max_examples=20, deadline=None)


class PromptPureLLM(LanguageModel):
    """Deterministic backend: the completion depends only on the prompt."""

    name = "prompt-pure"

    def _complete_text(self, prompt: str) -> str:
        if "Yes or No" in prompt:
            return "Yes" if len(prompt) % 2 else "No"
        return f"w{sum(ord(c) for c in prompt) % 89}"


@pytest.fixture(scope="module")
def client():
    config = UniDMConfig.full(seed=0)
    with Client.local(llm=PromptPureLLM(), config=config, batch_size=4, workers=4) as c:
        yield c


def run_rowwise(pipeline: Pipeline, table: Table, client: Client):
    """Reference semantics: per partition, per stage, one ``run_task`` per item."""
    answers = {}
    current = table
    for kind, size, stages in _segments(pipeline):
        if kind == "barrier":
            current = _rowwise_stages(current, [stages], client, answers)
            continue
        parts = [
            _rowwise_stages(part, stages, client, answers)
            for part in _chunks(current, size)
        ]
        if parts:
            current = Table.concat(parts, name=current.name)
    return current, answers


def _rowwise_stages(part, stages, client, answers):
    for _, operator in stages:
        if not operator.needs_llm:
            part = operator.transform(part)
            continue
        items = operator.compile(part)
        results = [
            (item, client.run_task(item.spec.to_task()).value) for item in items
        ]
        part = operator.apply(part, results, answers)
    return part


def assert_flow_matches_rowwise(pipeline, table, client):
    expected_table, expected_answers = run_rowwise(pipeline, table, client)
    result = FlowExecutor(client.submit_many, batch_size=3).run(pipeline, table)
    assert result.table.to_dicts() == expected_table.to_dicts()
    assert result.table.schema.names == expected_table.schema.names
    assert result.answers == expected_answers


# ----------------------------------------------------------------- strategies
COLS = ["name", "city", "phone"]
values = st.one_of(
    st.none(), st.sampled_from(["rome", "pisa", "bari", "x y", "06-1", "06-2"])
)
words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(1, 5))
    rows = []
    for _ in range(n_rows):
        rows.append({"name": draw(words), "city": draw(values), "phone": draw(values)})
    if draw(st.booleans()) and rows:
        rows.append(dict(rows[0]))  # force a duplicate row: dedup fodder
    return Table.from_dicts("t", rows)


partition_sizes = st.sampled_from([None, 1, 2, 3])

example_pairs = st.lists(
    st.tuples(words, words).map(list), min_size=1, max_size=2
)

reference_rows = st.lists(
    st.fixed_dictionaries(
        {"rid": st.sampled_from(["r1", "r2", "r3"]), "name": words}
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def single_operator_pipelines(draw):
    operator = draw(
        st.one_of(
            st.builds(Impute, column=st.sampled_from(COLS)),
            st.builds(DetectErrors, column=st.sampled_from(COLS)),
            st.builds(
                Transform,
                column=st.sampled_from(COLS),
                examples=example_pairs,
                output_column=st.sampled_from(["", "out"]),
            ),
            st.builds(
                Extract,
                document_column=st.just("name"),
                attribute=st.sampled_from(["team", "year"]),
            ),
            st.builds(
                Resolve,
                against=reference_rows,
                key=st.just("rid"),
                attributes=st.one_of(st.none(), st.just(("name",))),
                max_candidates=st.sampled_from([0, 1, 2]),
            ),
            st.builds(
                Join,
                other=st.lists(
                    st.fixed_dictionaries(
                        {"town": st.sampled_from(["rome", "pisa"]), "region": words}
                    ),
                    min_size=1,
                    max_size=2,
                ),
                on=st.just("city"),
                other_on=st.just("town"),
            ),
            st.builds(Ask, question=words, name=st.just("q")),
            st.builds(
                Filter,
                column=st.sampled_from(COLS),
                mode=st.sampled_from(["missing", "not_missing", "equals"]),
                value=st.one_of(st.none(), st.just("rome")),
            ),
            st.builds(Select, columns=st.just(("city", "name"))),
        )
    )
    return Pipeline([operator], partition_size=draw(partition_sizes))


@SETTINGS
@given(data=st.data())
def test_every_operator_is_identical_to_rowwise_execution(data, client):
    pipeline = data.draw(single_operator_pipelines())
    table = data.draw(tables())
    assert_flow_matches_rowwise(pipeline, table, client)


@SETTINGS
@given(data=st.data())
def test_multi_stage_pipelines_are_identical_to_rowwise_execution(data, client):
    table = data.draw(tables())
    pipeline = Pipeline(
        [
            DetectErrors("phone"),
            Impute("city"),
            Partition(data.draw(st.integers(1, 3))),
            Transform("phone", examples=[["06-1", "+39 06 1"]], output_column="intl"),
            Filter("city", "not_missing"),
            Select(["name", "city", "intl"]),
        ],
        partition_size=data.draw(partition_sizes),
    )
    assert_flow_matches_rowwise(pipeline, table, client)
