"""Unit tests for the prompt templates."""

import string

import pytest

from repro.prompting import (
    CLOZE_BLANK,
    CLOZE_CONSTRUCTION,
    CLOZE_DEMONSTRATIONS,
    DATA_PARSING,
    DIRECT_ANSWER,
    INSTANCE_RETRIEVAL,
    META_RETRIEVAL,
    PromptTemplate,
    render_demonstrations,
)


def test_template_fields_listed():
    assert set(META_RETRIEVAL.fields) == {"task", "query", "candidates"}
    assert set(DIRECT_ANSWER.fields) == {"task", "context", "query"}


def test_render_rejects_missing_and_extra_fields():
    template = PromptTemplate("t", "{a} and {b}")
    with pytest.raises(KeyError):
        template.render(a=1)
    with pytest.raises(KeyError):
        template.render(a=1, b=2, c=3)
    assert template.render(a=1, b=2) == "1 and 2"


def test_render_error_messages_name_the_fields():
    template = PromptTemplate("t", "{a} and {b}, {a} again")
    with pytest.raises(KeyError) as missing:
        template.render(b=1)
    assert missing.value.args == ("prompt 't' missing fields: ['a', 'a']",)
    with pytest.raises(KeyError) as extra:
        template.render(c=0, a=1, b=2, d=3)
    assert extra.value.args == ("prompt 't' got unexpected fields: ['c', 'd']",)


def test_a_template_is_parsed_once_not_per_render(monkeypatch):
    parsed = []
    parse = string.Formatter.parse

    def counted(self, format_string):
        parsed.append(format_string)
        return parse(self, format_string)

    monkeypatch.setattr(string.Formatter, "parse", counted)
    template = PromptTemplate("t", "{a} and {b}")
    assert parsed == ["{a} and {b}"]
    parsed.clear()
    for value in range(3):
        assert template.render(a=value, b="x") == f"{value} and x"
    assert template.fields == ["a", "b"]
    with pytest.raises(KeyError):
        template.render(a=1)
    with pytest.raises(KeyError):
        template.render(a=1, b=2, c=3)
    assert META_RETRIEVAL.render(task="t", query="q", candidates="c").startswith("The task is [t]")
    assert parsed == []


def test_meta_retrieval_template_wording_matches_paper():
    prompt = META_RETRIEVAL.render(task="data imputation", query="q", candidates="a, b")
    assert "Which attributes are helpful for the task and the query?" in prompt


def test_instance_retrieval_template_mentions_score_range():
    prompt = INSTANCE_RETRIEVAL.render(task="t", query="q", instances="1) x")
    assert "range from 0 to 3" in prompt


def test_data_parsing_template_wording():
    prompt = DATA_PARSING.render(serialized="a: 1")
    assert "convert the items into a textual format" in prompt


def test_cloze_construction_contains_demonstrations_and_trailing_colon():
    prompt = CLOZE_CONSTRUCTION.render(
        demonstrations=render_demonstrations(),
        task_description="data imputation which ...",
        context="ctx",
        query="q",
    )
    assert prompt.count("Claim:") >= len(CLOZE_DEMONSTRATIONS) + 1
    assert prompt.rstrip().endswith("Cloze question:")


def test_demonstration_bank_covers_main_tasks():
    tasks = {d.task for d in CLOZE_DEMONSTRATIONS}
    assert {"data imputation", "data transformation", "error detection", "entity resolution"} <= tasks
    # Each demonstration's cloze either carries a blank or a yes/no question.
    for demo in CLOZE_DEMONSTRATIONS:
        assert CLOZE_BLANK in demo.cloze or "Yes or No" in demo.cloze
