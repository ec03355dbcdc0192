"""The benchmark's backend: a stand-in for a remote completion API.

The numbers of this benchmark are meant to measure the repo's serving stack,
not a model.  ``SimulatedLLM`` costs ~1.5 ms of CPU per prompt, which would
drown the stack's own cost, so the benchmark brings its own backend:

* **prompt-pure** — the completion is a function of the prompt text alone
  (:func:`reply`), so an answer can be checked against an oracle computed in
  another process, and a cached completion is indistinguishable from a fresh
  one;
* **latency, not CPU** — one ``sleep(latency)`` per ``complete`` /
  ``complete_batch`` round trip, like one HTTPS request to a batched
  endpoint; tokens are billed at the API rule of thumb of four characters
  per token (an O(1) count, where the repo's tokenizer costs ~0.25 ms per
  prompt and would put the stub's CPU into ``server_cpu_ms_per_spec``);
* **thread-safe counters** — round trips, prompts, tokens and prompt
  characters, read by the server's control channel.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Sequence

from repro.llm.base import Completion, LanguageModel

#: First line of the cloze-construction prompt ``p_cq``.
_CLOZE_HEADER = "Write the claim as a cloze question."
#: How the final claim of a ``p_cq`` prompt starts (after the demonstrations).
_CLAIM_PREFIX = "Claim: The task is "
#: Task descriptions whose answer is a yes/no judgement.
_YES_NO_TASKS = ("error detection", "entity resolution", "join discovery")
#: Suffix the stub gives a yes/no cloze question, and recognises on the
#: answer prompt that cloze question becomes.
_YES_NO_SUFFIX = "Yes or No."


def reply(prompt: str) -> str:
    """The stub's completion for ``prompt``.

    ``Yes``/``No`` (by digest parity) for a prompt ending in ``Yes or No.``;
    ``w<digest> Yes or No.`` for the cloze construction of a yes/no task, so
    that its answer prompt is recognised in turn; ``w<digest>`` otherwise.
    """
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12]
    if prompt.endswith(_YES_NO_SUFFIX):
        return "Yes" if int(digest[-1], 16) % 2 else "No"
    if prompt.startswith(_CLOZE_HEADER):
        claim = prompt.rsplit(_CLAIM_PREFIX, 1)[-1]
        if claim.startswith(_YES_NO_TASKS):
            return f"w{digest} {_YES_NO_SUFFIX}"
    return f"w{digest}"


def billed_tokens(text: str) -> int:
    """Tokens the stub bills for ``text``: four characters per token."""
    return (len(text) + 3) // 4


class ApiStubLLM(LanguageModel):
    """A remote completion API with a fixed round-trip latency and ~zero CPU."""

    name = "api-stub"

    def __init__(self, latency: float = 0.0):
        super().__init__()
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.latency = latency
        self._lock = threading.Lock()
        self._round_trips = 0
        self._prompts = 0
        self._prompt_chars = 0
        self._prompt_tokens = 0
        self._completion_tokens = 0

    def _complete_text(self, prompt: str) -> str:
        return reply(prompt)

    def complete(self, prompt: str, kind: str = "other") -> Completion:
        return self.complete_batch([prompt], kind)[0]

    def complete_batch(
        self, prompts: Sequence[str], kind: str = "other"
    ) -> list[Completion]:
        if self.latency:
            time.sleep(self.latency)
        completions = []
        for prompt in prompts:
            text = reply(prompt)
            completions.append(
                Completion(
                    prompt=prompt,
                    text=text,
                    prompt_tokens=billed_tokens(prompt),
                    completion_tokens=billed_tokens(text),
                    model=self.name,
                )
            )
        with self._lock:
            self._round_trips += 1
            self._prompts += len(prompts)
            for completion in completions:
                self._prompt_chars += len(completion.prompt)
                self._prompt_tokens += completion.prompt_tokens
                self._completion_tokens += completion.completion_tokens
                self.usage.record(completion, kind=kind)
        return completions

    def counters(self) -> dict[str, int]:
        """A consistent snapshot of what the backend has been asked so far."""
        with self._lock:
            return {
                "round_trips": self._round_trips,
                "prompts": self._prompts,
                "prompt_chars": self._prompt_chars,
                "tokens": self._prompt_tokens + self._completion_tokens,
            }
