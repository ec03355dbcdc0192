"""Parse pipeline prompts back into structured requests.

A real LLM learns to recognise instructions from text; the simulated LLM does
the same job explicitly with regular expressions over the canonical templates
in :mod:`repro.prompting.templates`.  The parser is deliberately tolerant — it
classifies FM-style prompts (the baseline's different phrasing), the direct
concatenation prompts used in ablations, and UniDM's generated cloze questions,
because the simulated model must answer all of them through the same
``complete(prompt)`` interface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from ..prompting.templates import CLOZE_BLANK

_BRACKET = r"\[(.*?)\]"


class PromptKind(str, Enum):
    """The five prompt roles the simulated LLM recognises."""

    META_RETRIEVAL = "meta_retrieval"
    INSTANCE_RETRIEVAL = "instance_retrieval"
    DATA_PARSING = "data_parsing"
    CLOZE_CONSTRUCTION = "cloze_construction"
    ANSWER = "answer"


class AnswerStyle(str, Enum):
    """How the final answer prompt was constructed."""

    CLOZE = "cloze"      # UniDM target prompt construction
    DIRECT = "direct"    # naive concatenation (ablation)
    FM = "fm"            # Narayan et al. FM baseline phrasing


class ContextFormat(str, Enum):
    """Format of the context portion of an answer prompt."""

    NATURAL = "natural"  # parsed by p_dp into fluent sentences
    PAIRS = "pairs"      # serialized attribute:value pairs
    NONE = "none"        # no context at all


@dataclass
class ParsedMetaRetrieval:
    task: str
    query: str
    candidates: list[str]


@dataclass
class ParsedInstanceRetrieval:
    task: str
    query: str
    instances: list[tuple[int, str]]  # (index, serialized text)


@dataclass
class ParsedDataParsing:
    rows: list[list[tuple[str, str]]]  # rows of (attribute, value) pairs


@dataclass
class ParsedClozeConstruction:
    task_description: str
    task_name: str
    context: str
    query: str


@dataclass
class ParsedAnswer:
    """Everything the answer engine needs to know about an answer prompt."""

    task: str = "unknown"
    style: AnswerStyle = AnswerStyle.DIRECT
    context_format: ContextFormat = ContextFormat.NONE
    context_text: str = ""
    entity: str | None = None
    attribute: str | None = None
    value: str | None = None
    entity_a: str | None = None
    entity_b: str | None = None
    question: str | None = None
    source: str | None = None
    example_pairs: list[tuple[str, str]] = field(default_factory=list)
    raw_prompt: str = ""


# Known task names, used to recognise task descriptions in claims and direct
# prompts.  Order matters: longer names first so prefixes do not shadow them.
TASK_NAMES = (
    "table question answering",
    "information extraction",
    "entity resolution",
    "error detection",
    "data transformation",
    "data imputation",
    "join discovery",
    "data discovery",
)


def classify(prompt: str) -> PromptKind:
    """Classify a prompt into one of the five roles."""
    if "Which attributes are helpful" in prompt:
        return PromptKind.META_RETRIEVAL
    if "Score the relevance" in prompt:
        return PromptKind.INSTANCE_RETRIEVAL
    if "convert the items into a textual format" in prompt:
        return PromptKind.DATA_PARSING
    if "Write the claim as a cloze question" in prompt:
        return PromptKind.CLOZE_CONSTRUCTION
    return PromptKind.ANSWER


def _bracketed(prompt: str) -> list[str]:
    return re.findall(_BRACKET, prompt, flags=re.DOTALL)


def detect_task_name(text: str) -> str:
    """Match the leading task name mentioned in a description or claim."""
    lowered = text.lower()
    for name in TASK_NAMES:
        if name in lowered:
            return name
    return "unknown"


def parse_meta_retrieval(prompt: str) -> ParsedMetaRetrieval:
    groups = _bracketed(prompt)
    if len(groups) < 3:
        raise ValueError("malformed meta-retrieval prompt")
    task, query, candidates = groups[0], groups[1], groups[2]
    return ParsedMetaRetrieval(
        task=task.strip(),
        query=query.strip(),
        candidates=[c.strip() for c in candidates.split(",") if c.strip()],
    )


_INSTANCE_LINE = re.compile(r"^\s*(\d+)\)\s*(.+)$")


def parse_instance_retrieval(prompt: str) -> ParsedInstanceRetrieval:
    groups = _bracketed(prompt)
    if len(groups) < 2:
        raise ValueError("malformed instance-retrieval prompt")
    task, query = groups[0].strip(), groups[1].strip()
    instances: list[tuple[int, str]] = []
    for line in prompt.splitlines():
        match = _INSTANCE_LINE.match(line)
        if match:
            instances.append((int(match.group(1)), match.group(2).strip()))
    return ParsedInstanceRetrieval(task=task, query=query, instances=instances)


_PAIR = re.compile(r"([A-Za-z_][\w %/-]*)\s*:\s*([^,\n\]]+)")


def parse_pairs(text: str) -> list[tuple[str, str]]:
    """Extract ``attribute: value`` pairs from a serialized row."""
    return [(a.strip(), v.strip().rstrip(".")) for a, v in _PAIR.findall(text)]


def parse_data_parsing(prompt: str) -> ParsedDataParsing:
    match = re.search(r"logical order:\s*\n?\[(.*)\]", prompt, flags=re.DOTALL)
    if not match:
        raise ValueError("malformed data-parsing prompt")
    block = match.group(1)
    rows = [parse_pairs(line) for line in block.splitlines() if line.strip()]
    rows = [row for row in rows if row]
    return ParsedDataParsing(rows=rows)


def parse_cloze_construction(prompt: str) -> ParsedClozeConstruction:
    # The final claim is the one immediately before the trailing
    # "Cloze question:" with no completion.
    claims = re.findall(
        r"Claim:\s*(.*?)\nCloze question:", prompt, flags=re.DOTALL
    )
    if not claims:
        raise ValueError("malformed cloze-construction prompt")
    claim = claims[-1].strip()
    task_description = ""
    context = ""
    query = ""
    task_match = re.search(r"The task is\s*(.*?)(?:\s*The context is|$)", claim, re.DOTALL)
    if task_match:
        task_description = task_match.group(1).strip()
    context_match = re.search(r"The context is\s*\[(.*?)\]\.", claim, re.DOTALL)
    if context_match:
        context = context_match.group(1).strip()
    query_match = re.search(r"The target query is\s*\[(.*?)\]\.?\s*$", claim, re.DOTALL)
    if query_match:
        query = query_match.group(1).strip()
    return ParsedClozeConstruction(
        task_description=task_description,
        task_name=detect_task_name(task_description or claim),
        context=context,
        query=query,
    )


# ---------------------------------------------------------------------------
# Answer prompt parsing
# ---------------------------------------------------------------------------

def detect_context_format(context: str) -> ContextFormat:
    """Guess whether a context block is fluent text or serialized pairs."""
    if not context.strip():
        return ContextFormat.NONE
    pair_hits = len(_PAIR.findall(context))
    verb_hits = len(
        re.findall(
            r"\b(is|are|was|were|won|has|have|belongs|located|contains|priced)\b",
            context,
        )
    )
    if verb_hits >= pair_hits:
        return ContextFormat.NATURAL
    return ContextFormat.PAIRS


_TRANSFORM_PAIR = re.compile(
    r"([^\s,]+) can be transformed to ([^,.\n]+)", re.IGNORECASE
)
_FM_TRANSFORM_PAIR = re.compile(r"^(\S+)\s+to\s+(.+?)\s*$", re.MULTILINE)


def _parse_query_for_task(task: str, query: str, parsed: ParsedAnswer) -> None:
    """Fill task-specific fields of ``parsed`` from a structured query string."""
    query = query.strip()
    if task == "data imputation":
        if "," in query:
            entity, attribute = query.rsplit(",", 1)
            parsed.entity, parsed.attribute = entity.strip(), attribute.strip()
        else:
            parsed.entity = query
    elif task == "data transformation":
        parsed.source = query.rstrip("?").rstrip(":").strip()
    elif task == "error detection":
        if ":" in query:
            attribute, value = query.split(":", 1)
            parsed.attribute = attribute.strip()
            parsed.value = value.strip().rstrip("?").strip()
        else:
            parsed.value = query.rstrip("?")
    elif task == "entity resolution":
        match = re.search(
            r"Entity A is\s*(.*?)[,;]\s*Entity B is\s*(.*)$", query, re.DOTALL
        )
        if match:
            parsed.entity_a = match.group(1).strip()
            parsed.entity_b = match.group(2).strip().rstrip("?")
    elif task == "join discovery":
        parsed.question = query
    elif task == "information extraction":
        parsed.attribute = query
    else:
        parsed.question = query


def _parse_direct(prompt: str) -> ParsedAnswer:
    groups = _bracketed(prompt)
    parsed = ParsedAnswer(style=AnswerStyle.DIRECT, raw_prompt=prompt)
    if len(groups) >= 3:
        task_text, context, query = groups[0], groups[1], groups[2]
        parsed.task = detect_task_name(task_text)
        parsed.context_text = context.strip()
        parsed.context_format = detect_context_format(parsed.context_text)
        _parse_query_for_task(parsed.task, query, parsed)
        if parsed.task == "data transformation":
            parsed.example_pairs = _extract_transform_examples(parsed.context_text)
    return parsed


def _extract_transform_examples(text: str) -> list[tuple[str, str]]:
    pairs = [
        (a, b) for a, b in _TRANSFORM_PAIR.findall(text) if CLOZE_BLANK not in (a, b)
    ]
    if pairs:
        return pairs
    # "data before transformation: X, data after transformation: Y" blocks
    before_after = re.findall(
        r"data before transformation:\s*([^,\n]+?)[,;]?\s*"
        r"data after transformation:\s*([^,\n]+)",
        text,
        re.IGNORECASE,
    )
    if before_after:
        return list(before_after)
    return [
        (a, b)
        for a, b in _FM_TRANSFORM_PAIR.findall(text)
        if CLOZE_BLANK not in (a, b) and a.lower() != "transformed"
    ]


def _parse_fm(prompt: str) -> ParsedAnswer:
    parsed = ParsedAnswer(style=AnswerStyle.FM, raw_prompt=prompt)
    if "Are Entity A and Entity B the same" in prompt:
        parsed.task = "entity resolution"
        matches = re.findall(
            r"Entity A is\s*(.*?)\.\s*Entity B is\s*(.*?)\.\s*Are Entity A",
            prompt,
            re.DOTALL,
        )
        if matches:
            parsed.entity_a, parsed.entity_b = matches[-1]
        # Demonstration pairs before the last question form the context.
        last_block = prompt.rfind("Entity A is")
        parsed.context_text = prompt[:last_block].strip()
    elif re.search(r"Is there an error in", prompt):
        parsed.task = "error detection"
        matches = re.findall(
            r"Is there an error in\s*([\w %/-]+)\s*:\s*(.+?)\?", prompt
        )
        if matches:
            parsed.attribute, parsed.value = matches[-1]
            parsed.attribute = parsed.attribute.strip()
            parsed.value = parsed.value.strip()
        last = prompt.rfind("Is there an error in")
        parsed.context_text = prompt[:last].strip()
    elif re.search(r"What is the\s+[\w %/-]+\?", prompt):
        parsed.task = "data imputation"
        attr_match = re.findall(r"What is the\s+([\w %/-]+)\?", prompt)
        parsed.attribute = attr_match[-1].strip() if attr_match else None
        # The final (unanswered) row precedes the last question.
        last = prompt.rfind("What is the")
        target_row = prompt[:last]
        # rows are separated by newlines in the FM baseline
        lines = [line for line in target_row.splitlines() if line.strip()]
        if lines:
            row_pairs = parse_pairs(lines[-1])
            if row_pairs:
                parsed.entity = row_pairs[0][1]
        parsed.context_text = "\n".join(lines[:-1]).strip()
    else:
        parsed.task = "data transformation"
        parsed.example_pairs = _extract_transform_examples(prompt)
        source_match = re.search(r"(\S+)\s+to\s*$", prompt.strip())
        if source_match:
            parsed.source = source_match.group(1)
        parsed.context_text = prompt.strip()
    parsed.context_format = detect_context_format(parsed.context_text)
    return parsed


# Entity / attribute groups exclude sentence punctuation so that the pattern
# binds to the final cloze sentence rather than spanning the whole context.
_CLOZE_IMPUTATION = re.compile(
    r"The ([\w %/-]+?) of ([^.\n]+?) is " + re.escape(CLOZE_BLANK), re.IGNORECASE
)
_CLOZE_EXTRACTION = re.compile(
    r"The ([\w %/-]+?) is " + re.escape(CLOZE_BLANK), re.IGNORECASE
)
_CLOZE_TRANSFORM = re.compile(
    r"(\S+) can be transformed to " + re.escape(CLOZE_BLANK), re.IGNORECASE
)
_CLOZE_ERROR = re.compile(
    r'error in the ([\w %/-]+?) "(.+?)"', re.IGNORECASE
)
_CLOZE_ER = re.compile(
    r"Entity A is (.+?), whereas Entity B is (.+?)\. Are these two .*? the same\?",
    re.DOTALL | re.IGNORECASE,
)
_CLOZE_TABLEQA = re.compile(r"Question:\s*(.*?)\s*The answer is", re.DOTALL)


def _parse_cloze(prompt: str) -> ParsedAnswer:
    parsed = ParsedAnswer(style=AnswerStyle.CLOZE, raw_prompt=prompt)
    text = prompt.strip()

    if "Are the two columns joinable" in text:
        parsed.task = "join discovery"
        parsed.context_text = text
    elif _CLOZE_ERROR.search(text) or ("error" in text.lower() and "Yes or No" in text):
        parsed.task = "error detection"
        match = _CLOZE_ERROR.search(text)
        if match:
            parsed.attribute, parsed.value = match.group(1).strip(), match.group(2).strip()
        parsed.context_text = text
    elif re.search(r"Are these two .*? the same\?", text):
        parsed.task = "entity resolution"
        match = _CLOZE_ER.search(text)
        if match:
            parsed.entity_a = match.group(1).strip()
            parsed.entity_b = match.group(2).strip()
        parsed.context_text = text
    elif _CLOZE_TRANSFORM.search(text):
        parsed.task = "data transformation"
        match = _CLOZE_TRANSFORM.search(text)
        parsed.source = match.group(1) if match else None
        parsed.example_pairs = _extract_transform_examples(text)
        parsed.context_text = text
    elif _CLOZE_TABLEQA.search(text):
        parsed.task = "table question answering"
        match = _CLOZE_TABLEQA.search(text)
        parsed.question = match.group(1).strip() if match else None
        parsed.context_text = text
    elif _CLOZE_IMPUTATION.search(text):
        parsed.task = "data imputation"
        match = _CLOZE_IMPUTATION.search(text)
        if match:
            parsed.attribute = match.group(1).strip()
            parsed.entity = match.group(2).strip()
        parsed.context_text = text
    elif _CLOZE_EXTRACTION.search(text):
        parsed.task = "information extraction"
        match = _CLOZE_EXTRACTION.search(text)
        parsed.attribute = match.group(1).strip() if match else None
        parsed.context_text = text
    else:
        parsed.task = detect_task_name(text)
        parsed.context_text = text
    parsed.context_format = detect_context_format(parsed.context_text)
    return parsed


def parse_answer(prompt: str) -> ParsedAnswer:
    """Parse a final answer prompt regardless of which method produced it."""
    stripped = prompt.strip()
    if stripped.startswith("The task is [") and stripped.endswith("Answer:"):
        return _parse_direct(stripped)
    if (
        re.search(r"What is the\s+[\w %/-]+\?\s*$", stripped)
        or "Are Entity A and Entity B the same" in stripped
        # FM phrases error detection as "attribute: value?"; the cloze version
        # quotes the value instead, so the colon is what distinguishes them.
        or re.search(r"Is there an error in [\w %/-]+\s*:\s*.+\? Yes or No\.?\s*$", stripped)
        or re.search(r"\S+\s+to\s*$", stripped)
        and CLOZE_BLANK not in stripped
        and "cloze" not in stripped.lower()
    ):
        return _parse_fm(stripped)
    return _parse_cloze(stripped)
