"""World-knowledge substrate backing the simulated LLM.

A real LLM answers data-manipulation questions from two sources: the context
supplied in the prompt and the world knowledge absorbed during pre-training.
Offline we cannot ship pre-trained weights, so the reproduction models the
second source explicitly: a :class:`WorldKnowledge` store of facts, each tagged
with a *prevalence* in ``[0, 1]`` describing how often the fact would occur in
a pre-training corpus.  The simulated LLM recalls a fact with probability that
scales with ``model.knowledge_recall * fact.prevalence`` (Section 2 of
DESIGN.md), which is what lets domain-specific benchmarks (e.g. Amazon-Google
product strings) remain hard while common-knowledge benchmarks (city/country/
timezone) remain easy — matching the paper's qualitative findings.

The store also keeps:

* per-relation **sentence templates** used by the context-parsing step to turn
  ``attribute:value`` pairs into fluent text (and to parse that text back);
* an **attribute-link graph** giving the semantic relatedness of attribute
  pairs, which drives meta-wise retrieval;
* per-attribute **domain values** used by error detection to judge validity;
* **equivalence facts** (abbreviations, synonyms) used by join discovery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from ..datalake.text import normalize, string_similarity


@dataclass(frozen=True)
class Fact:
    """A (subject, relation, value) triple with a corpus-prevalence weight."""

    subject: str
    relation: str
    value: str
    prevalence: float = 0.8
    domain: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.prevalence <= 1.0:
            raise ValueError("prevalence must be in [0, 1]")


#: Fallback sentence template when a relation has no registered template.
DEFAULT_RELATION_TEMPLATE = "The {relation} of {subject} is {value}"


class WorldKnowledge:
    """Fact store + linguistic metadata for the simulated LLM."""

    def __init__(self) -> None:
        # (normalized subject, relation) -> Fact
        self._facts: dict[tuple[str, str], Fact] = {}
        # relation -> sentence template with {subject}/{value} (and optionally
        # {relation}) placeholders.  The transformation phrasing is generic
        # linguistic knowledge every model has, so it ships as a built-in.
        self._relation_templates: dict[str, str] = {
            "data after transformation": "{subject} can be transformed to {value}",
        }
        # frozenset({attr_a, attr_b}) -> strength in [0, 1]
        self._attribute_links: dict[frozenset[str], float] = {}
        # attribute -> set of normalized valid values
        self._domain_values: dict[str, set[str]] = {}
        # normalized value -> set of normalized equivalent values
        self._equivalences: dict[str, set[str]] = {}

    # -- facts -----------------------------------------------------------------
    def add_fact(
        self,
        subject: str,
        relation: str,
        value: str,
        prevalence: float = 0.8,
        domain: str = "",
    ) -> Fact:
        fact = Fact(
            subject=str(subject),
            relation=str(relation),
            value=str(value),
            prevalence=prevalence,
            domain=domain,
        )
        self._facts[(normalize(subject), str(relation))] = fact
        return fact

    def lookup(self, subject: str, relation: str, fuzzy: bool = True) -> Fact | None:
        """Find the fact for ``(subject, relation)``; optionally fuzzy on subject.

        Fuzzy matching models the LLM recognising an entity despite minor
        formatting differences (casing, punctuation, extra tokens).
        """
        key = (normalize(subject), str(relation))
        if key in self._facts:
            return self._facts[key]
        if not fuzzy:
            return None
        best: Fact | None = None
        best_score = 0.0
        subject_norm = normalize(subject)
        for (fact_subject, fact_relation), fact in self._facts.items():
            if fact_relation != relation:
                continue
            score = string_similarity(subject_norm, fact_subject)
            if score > best_score:
                best, best_score = fact, score
        if best is not None and best_score >= 0.82:
            return best
        return None

    def facts_about(self, subject: str) -> list[Fact]:
        subject_norm = normalize(subject)
        return [
            fact
            for (fact_subject, _), fact in self._facts.items()
            if fact_subject == subject_norm
        ]

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, key: tuple[str, str]) -> bool:
        subject, relation = key
        return (normalize(subject), relation) in self._facts

    # -- relation templates ------------------------------------------------------
    def set_relation_template(self, relation: str, template: str) -> None:
        """Register the sentence pattern used to verbalise a relation.

        The template must contain ``{subject}`` and ``{value}`` placeholders,
        e.g. ``"{subject} is a city in the country {value}"``.
        """
        if "{subject}" not in template or "{value}" not in template:
            raise ValueError("template must contain {subject} and {value}")
        self._relation_templates[relation] = template

    def relation_template(self, relation: str) -> str:
        return self._relation_templates.get(relation, DEFAULT_RELATION_TEMPLATE)

    def render_fact(self, subject: str, relation: str, value: str) -> str:
        """Verbalise one (subject, relation, value) triple as a sentence."""
        template = self.relation_template(relation)
        return template.format(subject=subject, relation=relation, value=value)

    def relation_regex(self, relation: str) -> re.Pattern[str]:
        """A regex that re-extracts (subject, value) from a rendered sentence."""
        template = self.relation_template(relation)
        pattern = re.escape(template)
        pattern = pattern.replace(re.escape("{subject}"), r"(?P<subject>.+?)")
        pattern = pattern.replace(re.escape("{value}"), r"(?P<value>.+?)")
        pattern = pattern.replace(re.escape("{relation}"), re.escape(relation))
        return re.compile(pattern + r"\.?$", re.IGNORECASE)

    @property
    def known_relations(self) -> list[str]:
        relations = {relation for _, relation in self._facts}
        relations.update(self._relation_templates)
        return sorted(relations)

    # -- attribute links -----------------------------------------------------------
    def add_attribute_link(self, attr_a: str, attr_b: str, strength: float = 0.8) -> None:
        """Declare that two attributes are semantically related (order-free)."""
        if not 0.0 <= strength <= 1.0:
            raise ValueError("strength must be in [0, 1]")
        self._attribute_links[frozenset({attr_a, attr_b})] = strength

    def attribute_link(self, attr_a: str, attr_b: str) -> float:
        return self._attribute_links.get(frozenset({attr_a, attr_b}), 0.0)

    # -- domain values -----------------------------------------------------------------
    def add_domain_value(self, attribute: str, value: str) -> None:
        self._domain_values.setdefault(attribute, set()).add(normalize(value))

    def add_domain_values(self, attribute: str, values: Iterable[str]) -> None:
        for value in values:
            self.add_domain_value(attribute, value)

    def domain_values(self, attribute: str) -> set[str]:
        return set(self._domain_values.get(attribute, set()))

    def domain_attributes(self) -> list[str]:
        """All attributes for which a value domain has been registered."""
        return sorted(self._domain_values)

    def is_valid_value(self, attribute: str, value: str) -> bool | None:
        """True/False if the domain of ``attribute`` is known, else None."""
        domain = self._domain_values.get(attribute)
        if not domain:
            return None
        return normalize(value) in domain

    def closest_domain_value(self, attribute: str, value: str) -> tuple[str, float] | None:
        """Most similar known domain value and its similarity, if any."""
        domain = self._domain_values.get(attribute)
        if not domain:
            return None
        value_norm = normalize(value)
        best_value, best_score = "", -1.0
        for candidate in domain:
            score = string_similarity(value_norm, candidate)
            if score > best_score:
                best_value, best_score = candidate, score
        return best_value, best_score

    # -- equivalences (abbreviations, synonyms) ----------------------------------------
    def add_equivalence(self, value_a: str, value_b: str) -> None:
        a, b = normalize(value_a), normalize(value_b)
        self._equivalences.setdefault(a, set()).add(b)
        self._equivalences.setdefault(b, set()).add(a)

    def equivalents(self, value: str) -> set[str]:
        return set(self._equivalences.get(normalize(value), set()))

    def are_equivalent(self, value_a: str, value_b: str) -> bool:
        a, b = normalize(value_a), normalize(value_b)
        return a == b or b in self._equivalences.get(a, set())

    def canonicalize(self, text: str) -> str:
        """Rewrite known equivalent phrases to a canonical representative.

        Models the LLM recognising that "india pale ale" and "ipa" (or
        "Germany" and "GER") denote the same thing: every phrase belonging to
        an equivalence class is replaced by the lexicographically smallest
        member, so downstream similarity comparisons see them as identical.
        Longer phrases are substituted first to avoid partial overlaps.
        """
        out = normalize(text)
        for phrase in sorted(self._equivalences, key=len, reverse=True):
            if phrase not in out:
                continue
            canonical = min(self._equivalences[phrase] | {phrase})
            if canonical != phrase:
                out = out.replace(phrase, canonical)
        return out

    # -- composition -------------------------------------------------------------------
    def merge(self, other: "WorldKnowledge") -> "WorldKnowledge":
        """In-place merge of another knowledge store; returns self."""
        self._facts.update(other._facts)
        self._relation_templates.update(other._relation_templates)
        self._attribute_links.update(other._attribute_links)
        for attribute, values in other._domain_values.items():
            self._domain_values.setdefault(attribute, set()).update(values)
        for value, equivalents in other._equivalences.items():
            self._equivalences.setdefault(value, set()).update(equivalents)
        return self
