"""A small, deterministic tokenizer used for token accounting.

The paper reports per-query token consumption (Table 7) to quantify the cost
of UniDM's extra LLM calls relative to the FM baseline.  We do not need a
byte-pair-encoding vocabulary for that comparison — only a stable, roughly
proportional token count — so the tokenizer splits on words and punctuation
and additionally breaks long words into sub-word chunks, which tracks GPT-style
tokenizers to within a few percent on English prompt text.

``count(text)`` is defined as ``len(tokenize(text))``.  Every prompt and
completion of a served request is counted, so for ASCII text ``count`` builds
no token list: it counts per character class with ``bytes.translate`` and
``bytes.count``.  Any other text is counted by the regex; the number is the same.
"""

from __future__ import annotations

import re

#: Maximum characters per sub-word chunk; long words are split into pieces of
#: this size, mimicking BPE splitting of rare words.
_SUBWORD_LEN = 4


def _marking(pattern: str, mark: str) -> bytes:
    """``bytes.translate`` table: ASCII the regex class matches to ``mark``, the rest to ``x``."""
    matches = re.compile(pattern).fullmatch
    return bytes(ord(mark if matches(chr(code)) else "x") for code in range(128)) + b"x" * 128


# The token pattern's own classes over ASCII, derived by matching, not typed in.
_LETTERS = _marking(r"[A-Za-z]", "a")
_DIGITS = _marking(r"\d", "d")
#: Bytes that are no token on their own: letters, digits and whitespace.
_PLAIN = bytes(code for code in range(128) if re.fullmatch(r"[\sA-Za-z\d]", chr(code)))


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
        """Number of tokens in ``text``: ``len(self.tokenize(text))``, always."""
        text = str(text)
        if not text.isascii():
            return len(self.tokenize(text))
        raw = text.encode("ascii")
        chunk = b"a" * self.subword_length
        # With a trailing non-member a run ends at each b"dx"; a run of L letters
        # grown by ``subword_length - 1`` holds ceil(L / n) non-overlapping chunks.
        digit_runs = (raw.translate(_DIGITS) + b"x").count(b"dx")
        letters = (raw.translate(_LETTERS) + b"x").replace(b"ax", chunk + b"x")
        return len(raw.translate(None, _PLAIN)) + digit_runs + letters.count(chunk)


#: Shared default tokenizer instance.
DEFAULT_TOKENIZER = SimpleTokenizer()


def count_tokens(text: str) -> int:
    """Count tokens with the library-wide default tokenizer."""
    return DEFAULT_TOKENIZER.count(text)
