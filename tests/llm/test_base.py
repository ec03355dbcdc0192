"""Unit tests for the LanguageModel interface and usage tracking."""

from repro.llm import EchoLLM


def test_echo_llm_records_usage():
    llm = EchoLLM(reply="pong")
    completion = llm.complete("ping ping ping", kind="test")
    assert completion.text == "pong"
    assert completion.prompt_tokens >= 3
    assert completion.completion_tokens >= 1
    assert completion.total_tokens == completion.prompt_tokens + completion.completion_tokens
    assert llm.usage.calls == 1
    assert llm.usage.per_prompt_kind["test"] == completion.total_tokens


def test_usage_delta_since_snapshot():
    llm = EchoLLM(reply="x")
    llm.complete("first")
    snapshot = llm.usage.snapshot()
    llm.complete("second prompt with more tokens")
    delta = llm.usage.delta_since(snapshot)
    assert delta.calls == 1
    assert delta.total_tokens > 0
    assert delta.total_tokens < llm.usage.total_tokens


def test_usage_reset():
    llm = EchoLLM(reply="x")
    llm.complete("prompt")
    llm.usage.reset()
    assert llm.usage.calls == 0
    assert llm.usage.total_tokens == 0
    assert llm.usage.per_prompt_kind == {}


def test_echo_llm_stores_prompts():
    llm = EchoLLM(reply="")
    llm.complete("a")
    llm.complete("b")
    assert llm.prompts == ["a", "b"]
