"""Unit tests for context parsing and target prompt construction."""

from repro.core import ImputationTask, UniDMConfig
from repro.core.cloze import TargetPromptBuilder
from repro.core.parsing import ContextParser
from repro.core.plan import drive
from repro.core.types import PromptTrace
from repro.llm import EchoLLM
from repro.prompting import CLOZE_BLANK


def test_parser_serializes_and_parses(city_table, city_llm):
    parser = ContextParser(UniDMConfig.full())
    trace = PromptTrace()
    plan = parser.plan_records(city_table.records[:2], ["city", "country"], trace)
    parsed = drive(plan, city_llm)
    assert parsed.was_parsed
    assert "Florence is a city in the country Italy." in parsed.text
    assert "city: Florence" in parsed.serialized
    assert trace.data_parsing is not None


def test_parser_disabled_returns_serialized(city_table, city_llm):
    parser = ContextParser(UniDMConfig.full(use_context_parsing=False))
    parsed = drive(parser.plan_records(city_table.records[:2], ["city", "country"]), city_llm)
    assert not parsed.was_parsed
    assert parsed.text == parsed.serialized


def test_parser_empty_context(city_llm):
    parser = ContextParser(UniDMConfig.full())
    parsed = drive(parser.plan_records([], ["city"]), city_llm)
    assert parsed.is_empty


def test_parser_raw_text_passthrough():
    parser = ContextParser(UniDMConfig.full())
    parsed = parser.parse_raw_text("A document about a player.")
    assert parsed.text == "A document about a player."
    assert not parsed.was_parsed


def test_parser_blank_llm_reply_falls_back(city_table):
    parser = ContextParser(UniDMConfig.full())
    parsed = drive(
        parser.plan_rows([[("city", "Florence"), ("country", "Italy")]]), EchoLLM(reply="   ")
    )
    assert not parsed.was_parsed
    assert "city: Florence" in parsed.text


def test_cloze_builder_produces_cloze(city_table, city_llm):
    task = ImputationTask(city_table, city_table[5], "timezone")
    builder = TargetPromptBuilder(UniDMConfig.full())
    trace = PromptTrace()
    plan = builder.plan(task, "Florence is a city in the country Italy.", trace)
    target = drive(plan, city_llm)
    assert target.is_cloze
    assert CLOZE_BLANK in target.text
    assert "Copenhagen" in target.text
    assert trace.cloze_construction is not None
    assert trace.target_prompt == target.text


def test_cloze_builder_disabled_uses_direct_prompt(city_table, city_llm):
    task = ImputationTask(city_table, city_table[5], "timezone")
    builder = TargetPromptBuilder(UniDMConfig.full(use_cloze_prompt=False))
    target = drive(builder.plan(task, "some context"), city_llm)
    assert not target.is_cloze
    assert target.text.startswith("The task is [")
    assert target.text.endswith("Answer:")


def test_cloze_builder_empty_reply_falls_back(city_table):
    task = ImputationTask(city_table, city_table[5], "timezone")
    builder = TargetPromptBuilder(UniDMConfig.full())
    target = drive(builder.plan(task, "ctx"), EchoLLM(reply=""))
    assert not target.is_cloze
    assert target.text.endswith("Answer:")
