"""Context data parsing (Section 4.3).

The retrieved context ``C`` is first losslessly serialized into
``attribute: value`` pairs (``V``) and then — when the component is enabled —
rewritten by the LLM (prompt ``p_dp``) into fluent natural-language text ``C'``
reflecting the logical relations among attributes, which is easier for the LLM
to ground against its training corpus than a table-shaped string.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..prompting.templates import DATA_PARSING
from .config import UniDMConfig
from .plan import LLMRequest, Plan
from .serialization import serialize_records, serialize_rows
from .types import PromptTrace


@dataclass
class ParsedContext:
    """The serialized pairs ``V`` and the (possibly parsed) context text used downstream."""

    serialized: str
    text: str
    was_parsed: bool

    @property
    def is_empty(self) -> bool:
        return not self.text.strip()


class ContextParser:
    """Serializes context rows and optionally rewrites them into fluent text."""

    def __init__(self, config: UniDMConfig):
        self.config = config

    def parse_raw_text(self, text: str, trace: PromptTrace | None = None) -> ParsedContext:
        """Raw document context bypasses serialization and the parsing prompt."""
        return ParsedContext(serialized=text, text=text, was_parsed=False)

    # ------------------------------------------------------------------- plans
    def plan_records(self, records, attributes, trace: PromptTrace | None = None) -> Plan:
        return (yield from self._plan(serialize_records(records, attributes), trace))

    def plan_rows(self, rows, trace: PromptTrace | None = None) -> Plan:
        return (yield from self._plan(serialize_rows(rows), trace))

    def _plan(self, serialized: str, trace: PromptTrace | None) -> Plan:
        if not serialized.strip():
            return ParsedContext(serialized="", text="", was_parsed=False)
        if not self.config.use_context_parsing:
            return ParsedContext(serialized=serialized, text=serialized, was_parsed=False)
        prompt = DATA_PARSING.render(serialized=serialized)
        completion_text = yield LLMRequest(prompt, "p_dp")
        if trace is not None:
            trace.data_parsing = prompt
            trace.data_parsing_output = completion_text
        text = completion_text.strip()
        if not text:
            # A degenerate parse falls back to the lossless serialization.
            return ParsedContext(serialized=serialized, text=serialized, was_parsed=False)
        return ParsedContext(serialized=serialized, text=text, was_parsed=True)
