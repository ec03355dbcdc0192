"""Prompt templates for every step of the UniDM pipeline.

The paper drives the whole pipeline with five textual prompts (Section 4):

``p_rm``  meta-wise retrieval     — "Which attributes are helpful ...?"
``p_ri``  instance-wise retrieval — "Score the relevance (range from 0 to 3) ..."
``p_dp``  context data parsing    — "convert the items into a textual format ..."
``p_cq``  cloze construction      — "Write the claim as a cloze question."
``p_as``  answer prompt           — the generated cloze question itself.

This module holds the canonical template strings (kept as close as possible to
the paper's wording) plus the FM baseline templates of Narayan et al. that the
paper compares against.  Both the pipeline (which renders prompts) and the
simulated LLM (which parses them back) import from here, so the text format is
defined exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from string import Formatter
from typing import Any


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt template with ``{placeholder}`` slots.

    ``render`` refuses missing/extra fields so that a template change that
    breaks the pipeline fails loudly instead of producing a silently malformed
    prompt.  The slots are parsed once, when the template is made: every
    prompt of the pipeline is rendered through here.
    """

    name: str
    template: str
    _fields: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _field_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fields = tuple(
            name for _, name, _, _ in Formatter().parse(self.template) if name is not None
        )
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "_field_set", frozenset(fields))

    @property
    def fields(self) -> list[str]:
        return list(self._fields)

    def render(self, **values: Any) -> str:
        if values.keys() != self._field_set:
            missing = [f for f in self._fields if f not in values]
            if missing:
                raise KeyError(f"prompt {self.name!r} missing fields: {missing}")
            extra = [k for k in values if k not in self._field_set]
            raise KeyError(f"prompt {self.name!r} got unexpected fields: {extra}")
        return self.template.format(**values)


# ---------------------------------------------------------------------------
# UniDM templates (Section 4.2 - 4.4)
# ---------------------------------------------------------------------------

#: Meta-wise retrieval prompt ``p_rm`` — select helpful attributes.
META_RETRIEVAL = PromptTemplate(
    name="p_rm",
    template=(
        "The task is [{task}]. The target query is [{query}]. "
        "The candidate attributes are [{candidates}]. "
        "Which attributes are helpful for the task and the query?"
    ),
)

#: Instance-wise retrieval prompt ``p_ri`` — score candidate records 0-3.
INSTANCE_RETRIEVAL = PromptTemplate(
    name="p_ri",
    template=(
        "The task is [{task}]. The target query is [{query}]. "
        "Score the relevance (range from 0 to 3) of the given instances "
        "based on the task and the query:\n{instances}"
    ),
)

#: Context data parsing prompt ``p_dp`` — serialize pairs -> natural text.
DATA_PARSING = PromptTemplate(
    name="p_dp",
    template=(
        "Given the data, convert the items into a textual format that "
        "encompasses all relevant information in a logical order:\n[{serialized}]"
    ),
)

#: Cloze construction prompt ``p_cq`` — few-shot claim -> cloze question.
CLOZE_CONSTRUCTION = PromptTemplate(
    name="p_cq",
    template=(
        "Write the claim as a cloze question.\n"
        "{demonstrations}\n"
        "Claim: The task is {task_description} "
        "The context is [{context}]. The target query is [{query}].\n"
        "Cloze question:"
    ),
)

#: Marker used for the blank of a cloze question.
CLOZE_BLANK = "__"


@dataclass(frozen=True)
class ClozeDemonstration:
    """A (claim, cloze question) pair used as an in-context example in ``p_cq``."""

    task: str
    claim: str
    cloze: str

    def render(self) -> str:
        return f"Claim: {self.claim}\nCloze question: {self.cloze}\n"


#: Demonstration bank following Appendix A of the paper.  It mixes
#: task-specific examples (imputation, transformation, error detection, entity
#: resolution) with task-agnostic phrasing so that unseen tasks still receive a
#: sensible cloze formulation.
CLOZE_DEMONSTRATIONS: tuple[ClozeDemonstration, ...] = (
    ClozeDemonstration(
        task="data imputation",
        claim=(
            "The task is data imputation which produces the missing data with "
            "some value to retain most of the data. The context is Wenham, "
            "Marysville, and Westmont are cities in the United States, "
            "identified by the ISO3 code USA. The target is city:New Cassel, "
            "iso3:USA, country:?"
        ),
        cloze=(
            "Wenham, Marysville, and Westmont are cities in the United States, "
            "identified by the ISO3 code USA. New Cassel is the name of a city "
            "whose ISO3 country code is USA. New Cassel belongs to the country "
            f"{CLOZE_BLANK}."
        ),
    ),
    ClozeDemonstration(
        task="data transformation",
        claim=(
            "The task is data transformation which is the process of converting "
            "data from one format to another required format within a record. "
            "The context is data before transformation: 20000101 data after "
            "transformation: 2000-01-01. The target is 19990415:?"
        ),
        cloze=(
            "20000101 can be transformed to 2000-01-01, and 19990415 can be "
            f"transformed to {CLOZE_BLANK}."
        ),
    ),
    ClozeDemonstration(
        task="error detection",
        claim=(
            "The task is error detection which detect attribute error within a "
            "record in a data cleaning system. The context is the address of "
            "2505 u s highway 431 north is not an error, the county name of "
            "mxrshxll is an error. The target is whether there is an error in "
            "city:sheffxeld."
        ),
        cloze=(
            'The address "2505 U.S. Highway 431 North" has no error, whereas '
            'the county name "mxrshxll" contains an error. It is required to '
            'identify if there is an error in the city name "sheffxeld". '
            "Is there an error in the city name? Yes or No."
        ),
    ),
    ClozeDemonstration(
        task="entity resolution",
        claim=(
            "The task is entity resolution which is the process of predicting "
            "whether two records are referencing the same real-world thing. "
            "The context is A is the Punch! Home Design Architectural Series "
            "4000 v10, manufactured by Punch! Software, is priced at $199.99. "
            "B is The Punch Software 41100 Punch! Home Design Architectural "
            "Series 18, manufactured by Punch Software, is priced at $18.99. "
            "The target is are A and B the same?"
        ),
        cloze=(
            "Punch! Home Design Architectural Series 4000 v10, manufactured by "
            "Punch! Software, is priced at $199.99, whereas Punch Software "
            "41100 Punch! Home Design Architectural Series 18, also "
            "manufactured by Punch Software, is priced at $18.99. "
            "Are these two products the same? Yes or No."
        ),
    ),
    ClozeDemonstration(
        task="task agnostic",
        claim=(
            "The task is data discovery. The context is A city is a human "
            "settlement of a notable size, a smart city uses data to manage "
            "services. The target query is smart city?"
        ),
        cloze=(
            "The task is to discover data from the context. A city is a human "
            f"settlement of a notable size. A smart city is {CLOZE_BLANK}."
        ),
    ),
)


def render_demonstrations(
    demonstrations: tuple[ClozeDemonstration, ...] = CLOZE_DEMONSTRATIONS,
) -> str:
    """Concatenate the demonstration bank for inclusion in ``p_cq``."""
    return "\n".join(d.render() for d in demonstrations)


# ---------------------------------------------------------------------------
# FM baseline templates (Narayan et al., "Can foundation models wrangle your
# data?") — manual serialization + direct question, no parsing / cloze step.
# ---------------------------------------------------------------------------

#: One serialized demonstration row in FM style: ``attr: value. attr: value.``
FM_ROW_SEPARATOR = ". "

FM_IMPUTATION_QUESTION = PromptTemplate(
    name="fm_imputation",
    template="{serialized_row} What is the {attribute}?",
)

FM_ERROR_DETECTION_QUESTION = PromptTemplate(
    name="fm_error_detection",
    template="Is there an error in {attribute}: {value}? Yes or No.",
)

FM_ENTITY_RESOLUTION_QUESTION = PromptTemplate(
    name="fm_entity_resolution",
    template=(
        "Entity A is {entity_a}. Entity B is {entity_b}. "
        "Are Entity A and Entity B the same? Yes or No."
    ),
)

FM_TRANSFORMATION_QUESTION = PromptTemplate(
    name="fm_transformation",
    template="{examples} {source} to",
)

# ---------------------------------------------------------------------------
# Direct (naive) prompts used when target-prompt construction is disabled in
# ablations: task description + context + query concatenated without cloze.
# ---------------------------------------------------------------------------

DIRECT_ANSWER = PromptTemplate(
    name="direct_answer",
    template=(
        "The task is [{task}]. The context is [{context}]. "
        "The target query is [{query}]. Answer:"
    ),
)
