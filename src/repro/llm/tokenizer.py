"""A small, deterministic tokenizer used for token accounting.

The paper reports per-query token consumption (Table 7) to quantify the cost
of UniDM's extra LLM calls relative to the FM baseline.  We do not need a
byte-pair-encoding vocabulary for that comparison — only a stable, roughly
proportional token count — so the tokenizer splits on words and punctuation
and additionally breaks long words into sub-word chunks, which tracks GPT-style
tokenizers to within a few percent on English prompt text.
"""

from __future__ import annotations

import re
from typing import Iterable

#: Maximum characters per sub-word chunk; long words are split into pieces of
#: this size, mimicking BPE splitting of rare words.
_SUBWORD_LEN = 4


class SimpleTokenizer:
    """Whitespace/punctuation tokenizer with sub-word splitting of long words."""

    def __init__(self, subword_length: int = _SUBWORD_LEN):
        if subword_length < 1:
            raise ValueError("subword_length must be positive")
        self.subword_length = subword_length
        # One token per match: a run of letters matches greedily in chunks of
        # ``subword_length`` (the last one shorter), a run of digits whole,
        # any other non-space character alone.
        self._token_re = re.compile(
            rf"[A-Za-z]{{1,{subword_length}}}|\d+|[^\sA-Za-z\d]"
        )

    def tokenize(self, text: str) -> list[str]:
        """Return the token strings of ``text``."""
        return self._token_re.findall(str(text))

    def count(self, text: str) -> int:
        """Number of tokens in ``text``."""
        return len(self.tokenize(text))

    def count_many(self, texts: Iterable[str]) -> int:
        return sum(self.count(t) for t in texts)


#: Shared default tokenizer instance.
DEFAULT_TOKENIZER = SimpleTokenizer()


def count_tokens(text: str) -> int:
    """Count tokens with the library-wide default tokenizer."""
    return DEFAULT_TOKENIZER.count(text)
