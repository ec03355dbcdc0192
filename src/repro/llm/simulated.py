"""The simulated language model.

``SimulatedLLM`` is the offline stand-in for the commercial LLM APIs the paper
uses (see DESIGN.md, substitution table).  It exposes exactly the same
prompt-in / text-out interface as any other :class:`~repro.llm.base.LanguageModel`
and *only* sees the prompt text: every behaviour — which attributes it deems
helpful, how it scores candidate instances, how it verbalises tabular context,
what cloze question it writes, and how accurate its final answer is — is
derived from parsing that text, from the :class:`WorldKnowledge` store, and
from the :class:`ModelProfile` capability parameters.
"""

from __future__ import annotations

import numpy as np

from ..datalake.text import attribute_name_similarity, normalize, string_similarity
from ..prompting.templates import CLOZE_BLANK
from .answering import AnswerEngine
from .base import LanguageModel
from .knowledge import WorldKnowledge
from .profiles import DEFAULT_MODEL, ModelProfile, get_profile
from .prompt_parser import (
    ParsedClozeConstruction,
    ParsedDataParsing,
    ParsedInstanceRetrieval,
    ParsedMetaRetrieval,
    PromptKind,
    classify,
    parse_answer,
    parse_cloze_construction,
    parse_data_parsing,
    parse_instance_retrieval,
    parse_meta_retrieval,
)
from .tokenizer import SimpleTokenizer


class SimulatedLLM(LanguageModel):
    """Deterministic (seeded) prompt interpreter standing in for a hosted LLM."""

    def __init__(
        self,
        profile: ModelProfile | str = DEFAULT_MODEL,
        knowledge: WorldKnowledge | None = None,
        seed: int = 0,
        tokenizer: SimpleTokenizer | None = None,
    ):
        super().__init__(tokenizer=tokenizer)
        self.profile = get_profile(profile) if isinstance(profile, str) else profile
        self.knowledge = knowledge if knowledge is not None else WorldKnowledge()
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.name = self.profile.name
        self._engine = AnswerEngine(self.profile, self.knowledge, self.rng)

    @property
    def identity(self) -> str:
        """The profile's name and the seed: another seed answers otherwise."""
        return f"{self.name}#seed={self.seed}"

    # ------------------------------------------------------------------ routing
    def complete_batch(self, prompts, kind: str = "other"):
        """Vectorized batch entry point: interpret each unique prompt once.

        The micro-batcher coalesces identical prompts from concurrent tasks
        (e.g. the same metadata-retrieval prompt for every record of one
        column); computing per *unique* prompt amortises the simulated model's
        parsing and knowledge lookups across the whole batch.  Usage is still
        recorded per requested prompt, mirroring what a billed API would
        charge for a batched endpoint.
        """
        memo: dict[str, str] = {}
        completions = []
        for prompt in prompts:
            if prompt not in memo:
                memo[prompt] = self._complete_text(prompt)
            completions.append(self._record(prompt, memo[prompt], kind))
        return completions

    def _complete_text(self, prompt: str) -> str:
        kind = classify(prompt)
        if kind is PromptKind.META_RETRIEVAL:
            return self._select_attributes(parse_meta_retrieval(prompt))
        if kind is PromptKind.INSTANCE_RETRIEVAL:
            return self._score_instances(parse_instance_retrieval(prompt))
        if kind is PromptKind.DATA_PARSING:
            return self._parse_data(parse_data_parsing(prompt))
        if kind is PromptKind.CLOZE_CONSTRUCTION:
            return self._construct_cloze(parse_cloze_construction(prompt))
        return self._engine.answer(parse_answer(prompt))

    # -------------------------------------------------------- meta-wise retrieval
    def _select_attributes(self, request: ParsedMetaRetrieval) -> str:
        """Pick the candidate attributes most helpful for the target attribute.

        The score blends the knowledge store's attribute-link graph (semantic
        relatedness learned from the corpus) with surface name similarity, plus
        capability-scaled noise; mirrors how a strong LLM reliably picks
        ``country`` for ``timezone`` while a weak one sometimes picks
        ``population``.
        """
        target_attribute = request.query.rsplit(",", 1)[-1].strip()
        noise_scale = 0.25 * (1.0 - self.profile.capability)
        scored: list[tuple[float, str]] = []
        for candidate in request.candidates:
            score = (
                0.75 * self.knowledge.attribute_link(candidate, target_attribute)
                + 0.20 * attribute_name_similarity(candidate, target_attribute)
                + float(self.rng.normal(0.0, noise_scale))
            )
            scored.append((score, candidate))
        scored.sort(key=lambda pair: -pair[0])
        helpful = [name for score, name in scored if score >= 0.30]
        if not helpful and scored:
            helpful = [scored[0][1]]
        return ", ".join(helpful[:3])

    # ---------------------------------------------------- instance-wise retrieval
    def _score_instances(self, request: ParsedInstanceRetrieval) -> str:
        """Score each candidate instance 0-3 for relevance to the target query."""
        entity = request.query.split(",", 1)[0].strip()
        entity_facts = {
            fact.relation: normalize(fact.value)
            for fact in self.knowledge.facts_about(entity)
        }
        lines = []
        for index, text in request.instances:
            subject = text.split(",", 1)[0].split(":", 1)[-1].strip() or text
            relatedness = self._knowledge_relatedness(entity_facts, subject)
            surface = 0.5 * string_similarity(text, entity) + 0.5 * string_similarity(
                subject, entity
            )
            noise = float(self.rng.normal(0.0, 0.12 * (1.0 - self.profile.capability) + 0.03))
            relevance = 0.65 * relatedness + 0.45 * surface + noise
            score = int(np.clip(round(3 * relevance), 0, 3))
            lines.append(f"{index}: {score}")
        return "\n".join(lines)

    def _knowledge_relatedness(
        self, entity_facts: dict[str, str], subject: str
    ) -> float:
        """Fraction of the target entity's recalled facts shared by ``subject``."""
        if not entity_facts:
            return 0.0
        subject_facts = {
            fact.relation: (normalize(fact.value), fact.prevalence)
            for fact in self.knowledge.facts_about(subject)
        }
        if not subject_facts:
            return 0.0
        shared = 0
        considered = 0
        for relation, value in entity_facts.items():
            if relation not in subject_facts:
                continue
            other_value, prevalence = subject_facts[relation]
            recall = self.profile.knowledge_recall * prevalence
            if self.rng.random() > recall:
                continue  # the model fails to recall this fact for comparison
            considered += 1
            if other_value == value:
                shared += 1
        if considered == 0:
            return 0.0
        return shared / considered

    # ----------------------------------------------------------- context parsing
    def _parse_data(self, request: ParsedDataParsing) -> str:
        """Rewrite serialized rows into fluent sentences via relation templates."""
        sentences: list[str] = []
        for row in request.rows:
            if not row:
                continue
            subject = row[0][1]
            if len(row) == 1:
                sentences.append(f"{subject}.")
                continue
            for attribute, value in row[1:]:
                sentence = self.knowledge.render_fact(subject, attribute, value)
                if not sentence.endswith("."):
                    sentence += "."
                sentences.append(sentence)
        return " ".join(sentences)

    # --------------------------------------------------------- cloze construction
    def _construct_cloze(self, request: ParsedClozeConstruction) -> str:
        """Turn a (task, context, query) claim into a cloze question.

        The output formats intentionally mirror the demonstration bank in
        Appendix A so that the final answer prompt is parseable back by
        :func:`repro.llm.prompt_parser.parse_answer`.
        """
        context = request.context.strip()
        query = request.query.strip()
        task = request.task_name
        prefix = f"The task is to {_task_gloss(task)}. " if task != "unknown" else ""
        # The question starts on its own line so that serialized (one row per
        # line) context does not run into the cloze sentence.
        context_part = f"{context}\n" if context else ""

        if task == "data imputation":
            entity, attribute = _split_entity_attribute(query)
            question = f"The {attribute} of {entity} is {CLOZE_BLANK}."
        elif task == "data transformation":
            source = query.rstrip("?").rstrip(":").strip()
            question = f"{source} can be transformed to {CLOZE_BLANK}."
        elif task == "error detection":
            attribute, value = _split_attribute_value(query)
            question = (
                f'It is required to identify if there is an error in the '
                f'{attribute} "{value}". Is there an error in the {attribute}? '
                "Yes or No."
            )
        elif task == "entity resolution":
            entity_a, entity_b = _split_entities(query)
            question = (
                f"Entity A is {entity_a}, whereas Entity B is {entity_b}. "
                "Are these two entities the same? Yes or No."
            )
        elif task == "table question answering":
            question = f"Question: {query} The answer is {CLOZE_BLANK}."
        elif task == "join discovery":
            question = "Are the two columns joinable? Yes or No."
        elif task == "information extraction":
            question = f"The {query} is {CLOZE_BLANK}."
        else:
            question = f"{query} {CLOZE_BLANK}."
        return f"{prefix}{context_part}{question}".strip()


def _task_gloss(task: str) -> str:
    glosses = {
        "data imputation": "impute the missing value",
        "data transformation": "transform the value into the required format",
        "error detection": "detect whether the value contains an error",
        "entity resolution": "decide whether two records refer to the same entity",
        "table question answering": "answer the question from the table",
        "join discovery": "decide whether two columns are joinable",
        "information extraction": "extract the attribute from the document",
    }
    return glosses.get(task, "solve the data manipulation task")


def _split_entity_attribute(query: str) -> tuple[str, str]:
    if "," in query:
        entity, attribute = query.rsplit(",", 1)
        return entity.strip(), attribute.strip()
    return query.strip(), "value"


def _split_attribute_value(query: str) -> tuple[str, str]:
    if ":" in query:
        attribute, value = query.split(":", 1)
        return attribute.strip(), value.strip().rstrip("?").strip()
    return "value", query.strip().rstrip("?")


def _split_entities(query: str) -> tuple[str, str]:
    import re

    match = re.search(r"Entity A is\s*(.*?)[,;]\s*Entity B is\s*(.*)$", query, re.DOTALL)
    if match:
        return match.group(1).strip(), match.group(2).strip().rstrip("?")
    parts = query.split(";", 1)
    if len(parts) == 2:
        return parts[0].strip(), parts[1].strip()
    return query.strip(), query.strip()
