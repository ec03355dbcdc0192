"""Shared helpers for the cluster tests.

The parity and affinity tests need execution to be a *pure function of each
spec* so that sharding (which changes call order and splits the backend into
N independent stacks) cannot change any answer.  The pipeline is that by
construction, at the paper's full configuration (``FULL_CONFIG``); the
backend must be too, hence :class:`PromptPureLLM` — the completion depends
only on the prompt text (no noise stream, no call-order state).

Cluster results must then be bit-identical to a single engine's ``run``
at any worker count — the cluster acceptance contract.
"""

from __future__ import annotations


from repro.api import (
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ExtractionSpec,
    ImputationSpec,
    JoinDiscoverySpec,
    TableQASpec,
    TransformationSpec,
)
from repro.core import UniDMConfig
from repro.llm.base import LanguageModel

#: The paper's full pipeline, retrieval included.
FULL_CONFIG = UniDMConfig.full(seed=0)


class PromptPureLLM(LanguageModel):
    """Deterministic backend: the completion depends only on the prompt."""

    name = "prompt-pure"

    def _complete_text(self, prompt: str) -> str:
        if "Yes or No" in prompt:
            return "Yes" if len(prompt) % 2 else "No"
        return f"w{sum(ord(c) for c in prompt) % 89}"


def make_mixed_specs(n_rounds: int = 4) -> list:
    """A mixed workload across all seven task types, ``n_rounds`` variations.

    Specs differ across rounds (distinct values/targets), so consistent
    hashing spreads them over several workers rather than one hot shard.
    """
    cities = ["Milan", "Turin", "Genoa", "Parma", "Padua", "Trieste", "Verona"]
    specs: list = []
    for round_index in range(n_rounds):
        city = cities[round_index % len(cities)]
        specs.extend(
            [
                TransformationSpec(
                    value=f"199904{round_index + 10:02d}",
                    examples=[["20000101", "2000-01-01"]],
                ),
                ImputationSpec(
                    rows=[
                        {"city": "Florence", "country": "Italy"},
                        {"city": "Madrid", "country": "Spain"},
                    ],
                    target={"city": city},
                    attribute="country",
                ),
                ExtractionSpec(
                    document=f"{city} hosted game {round_index} last night.",
                    attribute="city",
                ),
                TableQASpec(
                    rows=[{"player": f"player-{round_index}", "team": "Bulls"}],
                    question="which team?",
                ),
                EntityResolutionSpec(
                    record_a={"name": f"item {round_index}", "brand": "apple"},
                    record_b={"name": f"Item {round_index}", "brand": "Apple"},
                ),
                ErrorDetectionSpec(
                    rows=[
                        {"city": "Rome", "zip": "00100"},
                        {"city": "Pisa", "zip": "56100"},
                    ],
                    target={"city": "Rome", "zip": f"x{round_index}"},
                    attribute="zip",
                ),
                JoinDiscoverySpec(
                    table_a={
                        "name": "rank",
                        "rows": [{"country_abrv": f"C{round_index}", "rank": 1}],
                    },
                    column_a="country_abrv",
                    table_b={
                        "name": "geo",
                        "rows": [{"ISO": f"C{round_index}", "continent": "Europe"}],
                    },
                    column_b="ISO",
                ),
            ]
        )
    return specs


def fingerprint(results) -> list[tuple]:
    """The bit-parity projection of a result list (wire-visible fields)."""
    return [
        (r.answer, r.raw, r.task_type, r.tokens, r.calls, r.error is None)
        for r in results
    ]
