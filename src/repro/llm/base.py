"""Language-model interface and usage accounting.

Every component of the pipeline talks to an abstract :class:`LanguageModel`
through plain-text prompts, exactly as the paper's implementation talks to the
OpenAI completion API.  The offline reproduction plugs a
:class:`~repro.llm.simulated.SimulatedLLM` behind this interface; a real
deployment would plug an API client instead without touching the pipeline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

from .tokenizer import DEFAULT_TOKENIZER, SimpleTokenizer


@dataclass
class Completion:
    """The result of one LLM call."""

    prompt: str
    text: str
    prompt_tokens: int
    completion_tokens: int
    model: str = ""

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass
class UsageTracker:
    """Accumulates token and call counts across LLM invocations.

    Table 7 of the paper compares per-query token consumption between FM and
    UniDM; the pipeline snapshots this tracker before and after each query to
    compute the per-query delta.
    """

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    per_prompt_kind: dict[str, int] = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def record(self, completion: Completion, kind: str = "other") -> None:
        self.calls += 1
        self.prompt_tokens += completion.prompt_tokens
        self.completion_tokens += completion.completion_tokens
        self.per_prompt_kind[kind] = (
            self.per_prompt_kind.get(kind, 0) + completion.total_tokens
        )

    def snapshot(self) -> tuple[int, int, int]:
        """Return (calls, prompt_tokens, completion_tokens) for delta computation."""
        return self.calls, self.prompt_tokens, self.completion_tokens

    def delta_since(self, snapshot: tuple[int, int, int]) -> "UsageDelta":
        calls, prompt, completion = snapshot
        return UsageDelta(
            calls=self.calls - calls,
            prompt_tokens=self.prompt_tokens - prompt,
            completion_tokens=self.completion_tokens - completion,
        )

    def reset(self) -> None:
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self.per_prompt_kind.clear()


@dataclass(frozen=True)
class UsageDelta:
    """Token usage attributable to one query."""

    calls: int
    prompt_tokens: int
    completion_tokens: int

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class LanguageModel(abc.ABC):
    """Abstract prompt-in / text-out language model."""

    #: Human-readable model identifier (e.g. ``"gpt-3-175b"``).
    name: str = "abstract"

    def __init__(self, tokenizer: SimpleTokenizer | None = None):
        self.tokenizer = tokenizer or DEFAULT_TOKENIZER
        self.usage = UsageTracker()

    @abc.abstractmethod
    def _complete_text(self, prompt: str) -> str:
        """Produce the completion text for ``prompt`` (implemented by subclasses)."""

    def _record(self, prompt: str, text: str, kind: str) -> Completion:
        """Build a :class:`Completion` for ``(prompt, text)`` and record usage."""
        completion = Completion(
            prompt=prompt,
            text=text,
            prompt_tokens=self.tokenizer.count(prompt),
            completion_tokens=self.tokenizer.count(text),
            model=self.name,
        )
        self.usage.record(completion, kind=kind)
        return completion

    def complete(self, prompt: str, kind: str = "other") -> Completion:
        """Run one completion, recording token usage.

        Parameters
        ----------
        prompt:
            The full prompt text.
        kind:
            A label for usage breakdown (e.g. ``"p_rm"`` or ``"answer"``);
            purely for accounting.
        """
        return self._record(prompt, self._complete_text(prompt), kind)

    def complete_batch(
        self, prompts: Sequence[str], kind: str = "other"
    ) -> list[Completion]:
        """Run a batch of completions, one per prompt, preserving input order.

        ``kind`` is the prompts' common accounting label, or ``"mixed"`` when
        they do not share one (the serving layer batches across kinds); it
        never selects behaviour.

        The base implementation simply loops; backends that can amortise work
        across a batch (the simulated model's per-unique-prompt memoisation, a
        real API's batched endpoint) override it.  The serving layer's
        :class:`~repro.serving.batcher.MicroBatcher` funnels coalesced
        micro-batches through this entry point.
        """
        return [self.complete(prompt, kind=kind) for prompt in prompts]

    def reset_usage(self) -> None:
        self.usage.reset()


class EchoLLM(LanguageModel):
    """Trivial model that returns a constant string; useful in unit tests."""

    name = "echo"

    def __init__(self, reply: str = "", tokenizer: SimpleTokenizer | None = None):
        super().__init__(tokenizer=tokenizer)
        self.reply = reply
        self.prompts: list[str] = []

    def _complete_text(self, prompt: str) -> str:
        self.prompts.append(prompt)
        return self.reply
