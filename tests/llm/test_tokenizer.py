"""Unit tests for the simple tokenizer."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.llm import SimpleTokenizer, count_tokens


def test_count_tokens_nonzero_for_text():
    assert count_tokens("hello world") >= 2
    assert count_tokens("") == 0


def test_long_words_are_split_into_subwords():
    tokenizer = SimpleTokenizer(subword_length=4)
    tokens = tokenizer.tokenize("internationalization")
    assert len(tokens) == 5
    assert "".join(tokens) == "internationalization"


def test_punctuation_counts_as_tokens():
    tokenizer = SimpleTokenizer()
    assert tokenizer.count("a, b.") == 4


def test_count_many_sums_counts():
    tokenizer = SimpleTokenizer()
    texts = ["one two", "three"]
    assert tokenizer.count_many(texts) == tokenizer.count("one two") + tokenizer.count("three")


def test_invalid_subword_length():
    with pytest.raises(ValueError):
        SimpleTokenizer(subword_length=0)


def test_token_count_monotone_in_length():
    tokenizer = SimpleTokenizer()
    short = tokenizer.count("a few words")
    long = tokenizer.count("a few words " * 10)
    assert long > short


# Token counts are results (``TaskResult.tokens``, Table 7), so the one-regex
# tokenizer is held to the loop it replaced, kept here verbatim as the reference.
_REFERENCE_WORD_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")


def reference_tokenize(text: str, subword_length: int) -> list[str]:
    tokens: list[str] = []
    for piece in _REFERENCE_WORD_RE.findall(str(text)):
        if piece.isalpha() and len(piece) > subword_length:
            tokens.extend(
                piece[i : i + subword_length]
                for i in range(0, len(piece), subword_length)
            )
        else:
            tokens.append(piece)
    return tokens


#: Weighted towards what decides a split: ASCII and non-ASCII letters and
#: digits, whitespace of several kinds, punctuation — then any text at all.
_ALPHABET = st.sampled_from("abcXYZ" * 4 + "éßΩж中" + "0123٣४" + " \t\n\u00a0" + ".,:;-_'\"()[]?!€")


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(st.text(_ALPHABET, max_size=80), st.text(max_size=40)),
    subword_length=st.integers(1, 8),
)
def test_tokenize_equals_the_reference_loop(text, subword_length):
    tokenizer = SimpleTokenizer(subword_length=subword_length)
    expected = reference_tokenize(text, subword_length)
    assert tokenizer.tokenize(text) == expected
    assert tokenizer.count(text) == len(expected)


#: Every class boundary of the pattern over ASCII — letters, digits, each
#: ASCII whitespace (``\s`` takes ``\x1c``-``\x1f`` too), punctuation and the
#: controls at both ends — which is all the byte-class path ever sees ...
_ASCII_BOUNDARIES = (
    "abzAZ" * 3 + "0189" * 2 + " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f" + ".,;:-_'\"/\\" + "\x00\x7f"
)
#: ... and a non-ASCII member of each class (a letter, a digit, two spaces),
#: any one of which sends the whole text to the regex.
_ALL_BOUNDARIES = _ASCII_BOUNDARIES + "\u00e9\u0663\u00a0\u2003"


@settings(max_examples=1500, deadline=None)
@given(
    text=st.one_of(
        st.text(st.sampled_from(_ASCII_BOUNDARIES), max_size=60),
        st.text(st.sampled_from(_ALL_BOUNDARIES), max_size=12),
        st.text(max_size=40),
    ),
    subword_length=st.integers(1, 6),
)
def test_count_is_the_length_of_tokenize(text, subword_length):
    """``count`` never builds the token list for ASCII text; it must still be
    its length — token counts are results."""
    tokenizer = SimpleTokenizer(subword_length=subword_length)
    assert tokenizer.count(text) == len(tokenizer.tokenize(text))


def test_count_of_long_ascii_runs_and_non_text_input():
    tokenizer = SimpleTokenizer()
    for text in ("a" * 9 + "1" * 9 + "!" * 3, "abcd" * 50, "x 12 y\x1c34\x1fz", "", 12345, None):
        assert tokenizer.count(text) == len(tokenizer.tokenize(text))
