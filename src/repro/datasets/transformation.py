"""Data transformation benchmarks: StackOverflow and Bing-QueryLogs (TDE).

Each benchmark is a collection of by-example transformation cases: a handful
of (input, output) demonstration pairs plus a held-out input whose output must
be produced.  Three kinds of cases are generated, mirroring the composition of
the TDE benchmark:

* **syntactic** cases expressible by the operator library in
  :mod:`repro.transforms` (dates, phones, casing, ...) — both the TDE baseline
  and the LLM can solve these;
* **semantic** cases requiring world knowledge (country -> ISO-3 code, US state
  -> abbreviation, month name -> number, ...) — registered as ``transformation``
  facts in the knowledge store so only LLM-based methods can solve them, with
  probability scaled by prevalence;
* **hard** cases using custom formats outside both the operator library and
  common knowledge — nobody solves these reliably, which keeps the absolute
  accuracy in the 30-70% band the paper reports.

Bing-QueryLogs uses a harder mix than StackOverflow, reproducing the large gap
between the two columns of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.tasks.transformation import TransformationTask
from ..core.types import TaskType
from ..llm.knowledge import WorldKnowledge
from ..transforms.operators import OPERATORS_BY_NAME
from .base import BenchmarkDataset, DatasetBuilder

# ---------------------------------------------------------------------------
# Syntactic scenarios: generator of source values + operator name.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntacticScenario:
    name: str
    operator: str
    make_source: Callable[[np.random.Generator], str]


def _compact_date(rng: np.random.Generator) -> str:
    return (
        f"{int(rng.integers(1990, 2024))}"
        f"{int(rng.integers(1, 13)):02d}{int(rng.integers(1, 29)):02d}"
    )


def _iso_date(rng: np.random.Generator) -> str:
    return (
        f"{int(rng.integers(1990, 2024))}"
        f"-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"
    )


def _us_date(rng: np.random.Generator) -> str:
    return f"{int(rng.integers(1, 13))}/{int(rng.integers(1, 29))}/{int(rng.integers(1990, 2024))}"


def _phone_digits(rng: np.random.Generator) -> str:
    return (
        f"{int(rng.integers(200, 999))}{int(rng.integers(200, 999))}"
        f"{int(rng.integers(1000, 9999))}"
    )


def _snake_name(rng: np.random.Generator) -> str:
    words = ["user", "name", "count", "total", "page", "view", "click", "rate", "item"]
    k = int(rng.integers(2, 4))
    return "_".join(words[int(rng.integers(len(words)))] for _ in range(k))


def _plain_number(rng: np.random.Generator) -> str:
    return str(int(rng.integers(1_000, 99_000_000)))


def _ip(rng: np.random.Generator) -> str:
    return ".".join(str(int(rng.integers(1, 255))) for _ in range(4))


def _url(rng: np.random.Generator) -> str:
    hosts = ["stackoverflow.com", "github.com", "example.org", "data.gov", "bing.com"]
    return f"https://www.{hosts[int(rng.integers(len(hosts)))]}/page/{int(rng.integers(1, 999))}"


def _full_name(rng: np.random.Generator) -> str:
    first = ["john", "maria", "wei", "fatima", "carlos", "anna", "david", "yuki"]
    last = ["smith", "garcia", "chen", "khan", "mueller", "rossi", "tanaka", "brown"]
    return (
        f"{first[int(rng.integers(len(first)))].title()}"
        f" {last[int(rng.integers(len(last)))].title()}"
    )


def _address(rng: np.random.Generator) -> str:
    streets = ["main st", "oak ave", "maple dr", "2nd st"]
    states = ["CA", "NY", "TX", "WA", "IL"]
    return (
        f"{int(rng.integers(10, 999))} {streets[int(rng.integers(len(streets)))]} "
        f"Springfield {states[int(rng.integers(len(states)))]} "
        f"{int(rng.integers(10000, 99999))}"
    )


def _seconds(rng: np.random.Generator) -> str:
    return str(int(rng.integers(60, 30_000)))


# Benchmark cases stick to single-token values without commas or embedded
# sentence punctuation, so the by-example prompts stay unambiguous for every
# method (TDE, FM and UniDM all read the same demonstrations).  The remaining
# operators (addresses, names, URLs, thousands separators, ...) are still part
# of the library and are exercised by the unit tests.
SYNTACTIC_SCENARIOS: tuple[SyntacticScenario, ...] = (
    SyntacticScenario("compact-date-to-readable", "compact_date_to_readable", _compact_date),
    SyntacticScenario("compact-date-to-iso", "compact_date_to_iso", _compact_date),
    SyntacticScenario("iso-date-to-us", "iso_date_to_us", _iso_date),
    SyntacticScenario("us-date-to-iso", "us_date_to_iso", _us_date),
    SyntacticScenario("phone-dashes", "digits_to_dashed_phone", _phone_digits),
    SyntacticScenario("snake-to-camel", "snake_to_camel", _snake_name),
    SyntacticScenario("seconds-to-hms", "seconds_to_hms", _seconds),
)

#: Generators kept for library-level tests and examples (not benchmark cases).
EXTRA_VALUE_GENERATORS = {
    "plain_number": _plain_number,
    "ip": _ip,
    "url": _url,
    "full_name": _full_name,
    "address": _address,
}

# ---------------------------------------------------------------------------
# Semantic scenarios: lookup maps an LLM may know but a program search cannot.
# ---------------------------------------------------------------------------

COUNTRY_ISO3 = {
    "germany": "DEU", "italy": "ITA", "france": "FRA", "spain": "ESP",
    "denmark": "DNK", "brazil": "BRA", "japan": "JPN", "canada": "CAN",
    "india": "IND", "australia": "AUS", "mexico": "MEX", "sweden": "SWE",
    "norway": "NOR", "egypt": "EGY", "kenya": "KEN", "chile": "CHL",
}

US_STATE_ABBREV = {
    "california": "CA", "texas": "TX", "florida": "FL",
    "washington": "WA", "illinois": "IL", "oregon": "OR", "georgia": "GA",
    "arizona": "AZ", "colorado": "CO", "ohio": "OH", "michigan": "MI",
    "nevada": "NV",
}

MONTH_NUMBER = {
    "january": "01", "february": "02", "march": "03", "april": "04",
    "may": "05", "june": "06", "july": "07", "august": "08",
    "september": "09", "october": "10", "november": "11", "december": "12",
}

CURRENCY_SYMBOL = {
    "usd": "$", "eur": "€", "gbp": "£", "jpy": "¥", "inr": "₹", "cny": "¥",
}

AIRPORT_CITY = {
    "jfk": "new york", "lax": "los angeles", "sfo": "san francisco",
    "ord": "chicago", "sea": "seattle", "atl": "atlanta", "bos": "boston",
    "cdg": "paris", "nrt": "tokyo", "fra": "frankfurt",
}


@dataclass(frozen=True)
class SemanticScenario:
    name: str
    mapping: dict[str, str]
    prevalence: float
    domain: str


SEMANTIC_SCENARIOS: tuple[SemanticScenario, ...] = (
    SemanticScenario("country-to-iso3", COUNTRY_ISO3, 0.85, "geography"),
    SemanticScenario("state-to-abbrev", US_STATE_ABBREV, 0.85, "geography"),
    SemanticScenario("month-to-number", MONTH_NUMBER, 0.88, "calendar"),
    SemanticScenario("currency-to-symbol", CURRENCY_SYMBOL, 0.70, "finance"),
    SemanticScenario("airport-to-city", AIRPORT_CITY, 0.55, "travel"),
)

# ---------------------------------------------------------------------------
# Hard scenarios: custom formats outside the library and common knowledge.
# ---------------------------------------------------------------------------


def _reverse_tokens(value: str) -> str:
    return " ".join(reversed(value.split()))


def _interleave_dash(value: str) -> str:
    return "-".join(value)


def _custom_id(value: str) -> str:
    digits = "".join(c for c in value if c.isdigit())
    letters = "".join(c for c in value if c.isalpha())
    return f"{letters.upper()[:3]}#{digits[::-1]}"


@dataclass(frozen=True)
class HardScenario:
    name: str
    fn: Callable[[str], str]
    make_source: Callable[[np.random.Generator], str]


HARD_SCENARIOS: tuple[HardScenario, ...] = (
    HardScenario("reverse-tokens", _reverse_tokens, _full_name),
    HardScenario(
        "interleave-dash", _interleave_dash, lambda rng: str(int(rng.integers(100, 99999)))
    ),
    HardScenario("custom-id", _custom_id, lambda rng: f"ab{int(rng.integers(100, 9999))}cd"),
)


@dataclass(frozen=True)
class TransformationCase:
    """One by-example transformation problem with its ground truth."""

    scenario: str
    kind: str  # "syntactic" | "semantic" | "hard"
    examples: list[tuple[str, str]]
    source: str
    target: str


class _TransformationBenchmark(DatasetBuilder):
    """Shared generator; subclasses fix the case mix."""

    task_type = TaskType.DATA_TRANSFORMATION
    #: (syntactic, semantic, hard) case fractions.
    mix: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __init__(self, seed: int = 0, n_cases: int = 100, n_examples: int = 3):
        super().__init__(seed)
        self.n_cases = n_cases
        self.n_examples = n_examples

    # -- case generation -------------------------------------------------------
    def _syntactic_case(self) -> TransformationCase:
        scenario = self.choice(SYNTACTIC_SCENARIOS)
        operator = OPERATORS_BY_NAME[scenario.operator]
        pairs: list[tuple[str, str]] = []
        seen: set[str] = set()
        while len(pairs) < self.n_examples + 1:
            source = scenario.make_source(self.rng)
            if source in seen:
                continue
            seen.add(source)
            target = operator(source)
            if target is None or target == source:
                continue
            pairs.append((source, target))
        *examples, test = pairs
        return TransformationCase(
            scenario=scenario.name,
            kind="syntactic",
            examples=examples,
            source=test[0],
            target=test[1],
        )

    def _semantic_case(self) -> TransformationCase:
        scenario = self.choice(SEMANTIC_SCENARIOS)
        keys = self.shuffled(sorted(scenario.mapping))
        chosen = keys[: self.n_examples + 1]
        pairs = [(k, scenario.mapping[k]) for k in chosen]
        *examples, test = pairs
        return TransformationCase(
            scenario=scenario.name,
            kind="semantic",
            examples=examples,
            source=test[0],
            target=test[1],
        )

    def _hard_case(self) -> TransformationCase:
        scenario = self.choice(HARD_SCENARIOS)
        pairs: list[tuple[str, str]] = []
        seen: set[str] = set()
        while len(pairs) < self.n_examples + 1:
            source = scenario.make_source(self.rng)
            if source in seen:
                continue
            seen.add(source)
            pairs.append((source, scenario.fn(source)))
        *examples, test = pairs
        return TransformationCase(
            scenario=scenario.name,
            kind="hard",
            examples=examples,
            source=test[0],
            target=test[1],
        )

    def generate_cases(self) -> list[TransformationCase]:
        syn_frac, sem_frac, hard_frac = self.mix
        counts = [
            int(round(self.n_cases * syn_frac)),
            int(round(self.n_cases * sem_frac)),
        ]
        counts.append(self.n_cases - sum(counts))
        cases: list[TransformationCase] = []
        for _ in range(counts[0]):
            cases.append(self._syntactic_case())
        for _ in range(counts[1]):
            cases.append(self._semantic_case())
        for _ in range(counts[2]):
            cases.append(self._hard_case())
        return self.shuffled(cases)

    # -- dataset assembly --------------------------------------------------------
    def build(self) -> BenchmarkDataset:
        knowledge = WorldKnowledge()
        knowledge.set_relation_template(
            "data after transformation", "{subject} can be transformed to {value}"
        )
        # Semantic mappings are things an LLM may know from pre-training.
        for scenario in SEMANTIC_SCENARIOS:
            for source, target in scenario.mapping.items():
                knowledge.add_fact(
                    source, "transformation", target, scenario.prevalence, scenario.domain
                )
        # Hard custom formats are essentially unknown to the corpus.
        cases = self.generate_cases()
        for case in cases:
            if case.kind == "hard":
                knowledge.add_fact(case.source, "transformation", case.target, 0.10, "custom")

        tasks = [
            TransformationTask(case.source, case.examples, name=case.scenario)
            for case in cases
        ]
        ground_truth = [case.target for case in cases]
        return BenchmarkDataset(
            name=self.name,
            task_type=self.task_type,
            tables={},
            knowledge=knowledge,
            tasks=tasks,
            ground_truth=ground_truth,
            extra={"cases": cases},
        )


class StackOverflowDataset(_TransformationBenchmark):
    """StackOverflow split of the TDE benchmark (easier mix)."""

    name = "stackoverflow"
    mix = (0.62, 0.20, 0.18)


class BingQueryLogsDataset(_TransformationBenchmark):
    """Bing-QueryLogs split of the TDE benchmark (harder mix)."""

    name = "bing_querylogs"
    mix = (0.30, 0.34, 0.36)
