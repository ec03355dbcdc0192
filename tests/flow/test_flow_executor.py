"""End-to-end execution of pipelines through local clients.

The deterministic backends here are pure functions of the prompt (no noise
stream), so the executor's structural choices — dedup, partitioning, wave
fusion — must not change any answer.
"""

import pytest

from repro.api import Client
from repro.datalake import Table
from repro.flow import (
    Ask,
    DetectErrors,
    Filter,
    FlowError,
    FlowExecutor,
    Impute,
    Join,
    Partition,
    Pipeline,
    Select,
    Transform,
)
from repro.llm.base import LanguageModel


class PromptHashLLM(LanguageModel):
    """Deterministic pure-function backend: the reply depends only on the prompt."""

    name = "prompt-hash"

    def _complete_text(self, prompt: str) -> str:
        if "Yes or No" in prompt:
            return "Yes" if len(prompt) % 2 else "No"
        return f"v{sum(ord(c) for c in prompt) % 97}"


@pytest.fixture
def client():
    with Client.local(llm=PromptHashLLM(), batch_size=4, workers=4) as c:
        yield c


@pytest.fixture
def table():
    # Duplicate rows on purpose: dedup must collapse their specs.
    rows = [
        {"name": "ada", "city": "rome", "phone": "06-1"},
        {"name": "bob", "city": None, "phone": "06-2"},
        {"name": "bob", "city": None, "phone": "06-2"},
        {"name": "cyd", "city": "pisa", "phone": "06-3"},
    ]
    return Table.from_dicts("shops", rows)


def test_multi_stage_pipeline_end_to_end(client, table):
    flow = Pipeline(
        [
            DetectErrors("phone"),
            Impute("city"),
            Transform("phone", examples=[["06-1", "+39 06 1"]], output_column="intl"),
        ]
    )
    result = flow.run(table, client=client)
    out = result.table
    assert out.schema.names == ["name", "city", "phone", "phone_error", "intl"]
    assert len(out) == 4
    # Every missing city was imputed, every phone transformed and flagged.
    assert all(v is not None for v in out.column("city"))
    assert all(v is not None for v in out.column("intl"))
    assert all(isinstance(v, bool) for v in out.column("phone_error"))
    # The duplicated rows must come out identical.
    assert out[1].to_dict() == out[2].to_dict()
    report = result.report
    assert report.rows_in == report.rows_out == 4
    assert report.specs > report.submitted  # dedup actually happened
    assert [s.op for s in report.stages] == ["detect_errors", "impute", "transform"]


def test_partitioned_run_matches_whole_table_run(client, table):
    def stages():
        return [
            Impute("city"),
            Transform("phone", examples=[["06-1", "+39 06 1"]], output_column="intl"),
        ]

    whole = Pipeline(stages()).run(table, client=client)
    parts = Pipeline(stages(), partition_size=2).run(table, client=client)
    # The backend is a pure function of the prompt and imputation evidence is
    # the partition, so values agree wherever the evidence agrees; shape and
    # metrics must be consistent regardless.
    assert parts.table.schema.names == whole.table.schema.names
    assert len(parts.table) == len(whole.table)
    assert parts.report.specs == whole.report.specs
    # Transform specs do not embed the partition, so they dedup across runs:
    assert parts.table.column("intl") == whole.table.column("intl")


def test_partition_marker_changes_chunking_mid_pipeline(client, table):
    flow = Pipeline(
        [
            Transform("phone", examples=[["06-1", "+39 06 1"]], output_column="intl"),
            Partition(1),
            Impute("city"),
        ]
    )
    result = flow.run(table, client=client)
    impute_metrics = result.report.stages[2]
    # Partition(1): one chunk per row; the marker itself never executes.
    assert impute_metrics.partitions == 4
    assert result.report.stages[1].partitions == 0
    # Two identical single-row partitions -> identical imputation specs dedup.
    assert impute_metrics.items == 2
    assert impute_metrics.submitted == 1
    assert impute_metrics.reused == 1


def test_relational_stages_and_barriers_compose(client, table):
    regions = Table.from_dicts(
        "regions",
        [{"town": "rome", "region": "lazio"}, {"town": "pisa", "region": "tuscany"}],
    )
    flow = Pipeline(
        [
            Filter("city", "not_missing"),
            Join(regions, on="city", other_on="town"),
            Ask("how many shops?", name="n_shops"),
            Select(["name", "city", "region"]),
        ]
    )
    result = flow.run(table, client=client)
    assert result.table.schema.names == ["name", "city", "region"]
    assert len(result.table) == 2  # the two bob rows were filtered out
    assert "n_shops" in result.answers
    assert "join:city~regions.town" in result.answers
    if result.answers["join:city~regions.town"]:
        assert result.table.column("region") == ["lazio", "tuscany"]
    else:
        assert result.table.column("region") == [None, None]


def test_filter_can_empty_the_table_without_breaking_later_stages(client, table):
    flow = Pipeline(
        [
            Filter("name", "equals", value="nobody"),
            DetectErrors("phone"),
            Select(["name", "phone", "phone_error"]),
        ]
    )
    result = flow.run(table, client=client)
    assert len(result.table) == 0
    assert result.table.schema.names == ["name", "phone", "phone_error"]
    assert result.report.submitted == 0


def test_dedup_cache_spans_stages(client):
    # Two transform stages over columns with overlapping values: the shared
    # values must be submitted once, then reused across stages.
    table = Table.from_dicts(
        "t",
        [{"a": "x", "b": "x"}, {"a": "y", "b": "x"}],
    )
    examples = [["p", "P"]]
    flow = Pipeline(
        [
            Transform("a", examples=examples, output_column="a2"),
            Transform("b", examples=examples, output_column="b2"),
        ]
    )
    result = flow.run(table, client=client)
    assert result.report.specs == 4
    assert result.report.submitted == 2  # "x" and "y", once each
    assert result.report.reused == 2
    assert result.report.dedup_factor == 2.0
    # Same value -> same answer, wherever it sat.
    out = result.table
    assert out.column("a2")[0] == out.column("b2")[0] == out.column("b2")[1]


def test_failed_item_raises_flow_error_naming_the_stage(table):
    from repro.api.errors import ErrorInfo
    from repro.api.results import TaskResult

    def failing_backend(specs):
        return [
            TaskResult(answer=None, error=ErrorInfo(code="boom", message="backend down"))
            for _ in specs
        ]

    executor = FlowExecutor(failing_backend)
    with pytest.raises(FlowError, match=r"stage 0 \(impute\).*boom"):
        executor.run(Pipeline([Impute("city")]), table)


def test_backend_answer_count_mismatch_is_an_error(table):
    executor = FlowExecutor(lambda specs: [])
    with pytest.raises(FlowError, match="answered 0 results"):
        executor.run(Pipeline([Impute("city")]), table)


def test_pipeline_run_with_default_client_owns_and_closes_it(table):
    # No client passed: the pipeline assembles (and closes) a local stack.
    result = Pipeline([DetectErrors("phone")]).run(table.head(1), seed=0)
    assert result.table.column("phone_error") == [False] or result.table.column(
        "phone_error"
    ) == [True]


def test_validation_failure_happens_before_any_submission(client, table):
    calls = []

    def spy(specs):
        calls.append(specs)
        return client.submit_many(specs)

    executor = FlowExecutor(spy)
    with pytest.raises(FlowError):
        executor.run(Pipeline([Impute("zipcode")]), table)
    assert calls == []


def test_failed_spec_blames_the_stage_credited_with_its_submission():
    from repro.api.errors import ErrorInfo
    from repro.api.results import TaskResult

    def failing_backend(specs):
        return [
            TaskResult(answer=None, error=ErrorInfo(code="boom", message="backend down"))
            for _ in specs
        ]

    # Both stages compile the same spec; stage 0 submits it, stage 1 reuses it.
    examples = [["p", "P"]]
    flow = Pipeline(
        [
            Transform("a", examples=examples, output_column="a2"),
            Transform("b", examples=examples, output_column="b2"),
        ]
    )
    table = Table.from_dicts("t", [{"a": "x", "b": "x"}])
    with pytest.raises(FlowError, match=r"stage 0 \(transform\).*boom"):
        FlowExecutor(failing_backend).run(flow, table)


# ------------------------------------------------- partition groups move together
def lake():
    """Twelve rows, three partitions of four: a missing city in each partition,
    phone values repeating across partitions."""
    rows = [
        {"name": f"shop-{i}", "city": None if i % 3 == 0 else "rome", "phone": f"06-{i % 6}"}
        for i in range(12)
    ]
    return Table.from_dicts("lake", rows)


def three_stage_flow(partition_size=4):
    return Pipeline(
        [
            DetectErrors("phone"),
            Impute("city"),
            Transform("phone", examples=[["06-1", "+39 06 1"]], output_column="intl"),
        ],
        partition_size=partition_size,
    )


def spied_run(monkeypatch, batch_size, partition_size=4):
    """Run the three-stage flow, logging every plan (rows compiled) and every
    submission (spec keys) in order, on a fresh local stack."""
    from repro.flow.planner import Planner, spec_key

    events = []
    plan_wave = Planner.plan_wave

    def spying_plan_wave(self, stages, table, *shared):
        events.append(("plan", len(table)))
        return plan_wave(self, stages, table, *shared)

    monkeypatch.setattr(Planner, "plan_wave", spying_plan_wave)
    with Client.local(llm=PromptHashLLM(), batch_size=4, workers=4) as client:

        def submit(specs):
            events.append(("submit", [spec_key(spec) for spec in specs]))
            return client.submit_many(specs)

        result = FlowExecutor(submit, batch_size=batch_size).run(
            three_stage_flow(partition_size), lake()
        )
    return result, events


def submissions(events):
    return [keys for kind, keys in events if kind == "submit"]


def rows_per_submission(events):
    """Rows compiled by the plans each submission was drawn from."""
    out, rows, fresh_round = [], 0, True
    for kind, value in events:
        if kind == "plan":
            rows = value if fresh_round else rows + value
            fresh_round = False
        else:
            out.append(rows)
            fresh_round = True
    return out


def test_a_waves_partitions_leave_in_one_submission(monkeypatch):
    result, events = spied_run(monkeypatch, batch_size=64)
    # Two LLM waves (DetectErrors | Impute + Transform), all three
    # partitions in one group: one submission per wave, not per partition.
    assert result.report.waves == 2
    assert len(submissions(events)) == 2
    assert rows_per_submission(events) == [12, 12]


def test_groups_are_cut_at_batch_size_rows(monkeypatch):
    result, events = spied_run(monkeypatch, batch_size=8)
    sent = submissions(events)
    # Groups {0, 1} (8 rows) and {2} (4 rows); per (group, wave) the new
    # specs leave in ceil(new / 8) submissions: 8 | 9 new for the first
    # group (1 + 2 submissions), 4 | 1 for the second (1 + 1) — its phones
    # were all answered by the first group.
    assert [len(keys) for keys in sent] == [8, 8, 1, 4, 1]
    assert rows_per_submission(events) == [8, 8, 8, 4, 4]
    assert sum(map(len, sent)) == result.report.submitted


@pytest.mark.parametrize(
    "batch_size, partition_size, attained",
    [(8, 4, 8), (6, 4, 4), (64, 4, 12), (4, 4, 4), (3, 4, 4), (5, 2, 4), (1, 12, 12)],
)
def test_rows_compiled_per_submission_are_bounded(
    monkeypatch, batch_size, partition_size, attained
):
    _, events = spied_run(monkeypatch, batch_size, partition_size)
    rows = rows_per_submission(events)
    assert max(rows) <= max(batch_size, partition_size)
    # ...and the bound is what groups reach, not one partition at a time.
    assert max(rows) == attained


@pytest.mark.parametrize("batch_size", [1, 8, 64])
def test_a_spec_key_is_submitted_at_most_once_per_run(monkeypatch, batch_size):
    result, events = spied_run(monkeypatch, batch_size)
    keys = [key for batch in submissions(events) for key in batch]
    assert len(keys) == len(set(keys)) == result.report.submitted
    # The repeated phone values were compiled in several partitions.
    transform = result.report.stages[2]
    assert transform.reused > 0


def test_grouped_run_matches_one_partition_at_a_time(monkeypatch):
    grouped, _ = spied_run(monkeypatch, batch_size=64)
    single, _ = spied_run(monkeypatch, batch_size=1)
    assert grouped.table.to_dicts() == single.table.to_dicts()
    assert grouped.table.schema.names == single.table.schema.names
    assert grouped.answers == single.answers
    def totals(r):
        return (
            r.specs, r.submitted, r.reused, r.dedup_factor, r.llm_calls,
            r.llm_tokens, r.rows_in, r.rows_out, r.waves,
            [stage.partitions for stage in r.stages],
        )

    assert totals(grouped.report) == totals(single.report)
