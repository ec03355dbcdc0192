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

import random

from repro.api import (
    Client,
    EntityResolutionSpec,
    ErrorDetectionSpec,
    ExtractionSpec,
    ImputationSpec,
    JoinDiscoverySpec,
    PipelineSpec,
    TableQASpec,
    TransformationSpec,
)
from repro.core import UniDMConfig
from repro.flow import DetectErrors, Impute, Pipeline, Transform
from repro.llm.base import Completion, LanguageModel

#: The paper's full pipeline, retrieval included.
FULL_CONFIG = UniDMConfig.full(seed=0)


class PromptPureLLM(LanguageModel):
    """Deterministic backend: the completion depends only on the prompt."""

    name = "prompt-pure"

    def _complete_text(self, prompt: str) -> str:
        if "Yes or No" in prompt:
            return "Yes" if len(prompt) % 2 else "No"
        return f"w{sum(ord(c) for c in prompt) % 89}"


class BillingLLM(PromptPureLLM):
    """A prompt-pure backend that bills its own counts, four characters a
    token (a hosted API's rule of thumb), where ``SimpleTokenizer`` counts
    otherwise; ``billed`` maps each prompt it was asked to its completion."""

    name = "billing"

    def __init__(self, billed: dict | None = None):
        super().__init__()
        self.billed: dict[str, Completion] = {} if billed is None else billed

    def _record(self, prompt: str, text: str, kind: str) -> Completion:
        completion = Completion(
            prompt, text, (len(prompt) + 3) // 4, (len(text) + 3) // 4, self.name
        )
        self.billed[prompt] = completion
        self.usage.record(completion, kind=kind)
        return completion


def submit(router, specs, **options) -> list:
    """``specs`` through ``router``'s front door, as a client sends them
    (``options``: ``submit_many``'s ``priority``/``tenant``)."""
    return Client.cluster(router=router).submit_many(specs, **options)


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


def make_pipeline_specs(n_plans: int = 6, listings: int = 8) -> list[PipelineSpec]:
    """Duplicated-table plans shaped like the ``pipeline_cluster`` benchmark's.

    Each plan runs three stages — detect phone errors, impute the missing
    city, reformat the phone — over a table whose ``listings`` distinct rows
    each appear three times, in partitions of ``listings`` rows.  Specs of
    one plan share retrieval and parsing sub-prompts, and the router spreads
    those specs over its workers: the prompts a cluster of private caches
    computed once per shard that met them.
    """
    syllables = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi")
    plans = []
    for index in range(n_plans):
        rng = random.Random(f"plan:{index}")
        rows = [
            {
                "name": f"{''.join(rng.choices(syllables, k=3))} p{index} {listing}",
                "city": None,
                "phone": f"{rng.randrange(200, 999)}-555-{rng.randrange(10000):04d}",
                "cuisine": rng.choice(("thai", "diner", "sushi", "tapas")),
                "price": f"${rng.randrange(8, 80)}",
            }
            for listing in range(listings)
        ]
        table = []
        for _ in range(3):
            copy = [dict(row) for row in rows]
            rng.shuffle(copy)
            table.extend(copy)
        flow = Pipeline(
            [
                DetectErrors("phone"),
                Impute("city"),
                Transform(
                    "phone",
                    examples=[["212-555-0199", "(212) 555 0199"]],
                    output_column="intl",
                ),
            ],
            partition_size=listings,
        )
        plans.append(
            PipelineSpec(
                rows=table,
                stages=flow.to_payload()["stages"],
                table_name=f"lake_{index}",
                partition_size=listings,
            )
        )
    return plans


def fingerprint(results) -> list[tuple]:
    """The bit-parity projection of a result list (wire-visible fields)."""
    return [
        (r.answer, r.raw, r.task_type, r.tokens, r.calls, r.error is None)
        for r in results
    ]
