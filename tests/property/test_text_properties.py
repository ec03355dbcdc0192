"""Property-based tests for the string similarity utilities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalake import text

words = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F), min_size=0, max_size=30)
phrases = st.lists(words, min_size=0, max_size=6).map(" ".join)


@given(phrases)
@settings(max_examples=60)
def test_similarity_is_reflexive(value):
    if value.strip():
        assert text.string_similarity(value, value) > 0.95
    assert 0.0 <= text.string_similarity(value, value) <= 1.0


@given(phrases, phrases)
@settings(max_examples=60)
def test_similarity_symmetric_and_bounded(a, b):
    ab = text.string_similarity(a, b)
    ba = text.string_similarity(b, a)
    assert abs(ab - ba) < 1e-9
    assert 0.0 <= ab <= 1.0


def reference_levenshtein(a: str, b: str) -> int:
    """The classic two-row dynamic program over the normalised, 48-character
    values: what ``text.levenshtein`` computed before it went bit-parallel."""
    a, b = text.normalize(a)[:48], text.normalize(b)[:48]
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def reference_edit_similarity(a: object, b: object) -> float:
    sa, sb = text.normalize(a), text.normalize(b)
    denom = max(len(sa), len(sb))
    return 1.0 if denom == 0 else 1.0 - reference_levenshtein(sa, sb) / denom


#: Any text, non-ASCII and whitespace included, up to twice the 48-character
#: cap; and texts drawn from a few letters, where edits align often.
any_text = st.text(max_size=96)
few_letters = st.text(alphabet="abcé ", max_size=70)


@given(st.one_of(any_text, few_letters), st.one_of(any_text, few_letters))
@settings(max_examples=400)
def test_bit_parallel_levenshtein_is_the_dynamic_program(a, b):
    assert text.levenshtein(a, b) == reference_levenshtein(a, b)
    assert text.edit_similarity(a, b) == reference_edit_similarity(a, b)


@given(phrases, phrases)
@settings(max_examples=60)
def test_levenshtein_triangle_like_properties(a, b):
    distance = text.levenshtein(a, b)
    assert distance >= 0
    assert distance == text.levenshtein(b, a)
    if text.normalize(a) == text.normalize(b):
        assert distance == 0


@given(phrases, phrases)
@settings(max_examples=60)
def test_jaccard_bounds_and_identity(a, b):
    score = text.token_jaccard(a, b)
    assert 0.0 <= score <= 1.0
    if text.tokenize(a):
        assert text.token_jaccard(a, a) == 1.0


@given(phrases)
@settings(max_examples=40)
def test_embedding_is_unit_norm_or_zero(value):
    import numpy as np

    vector = text.hashed_ngram_vector(value, dim=64)
    norm = np.linalg.norm(vector)
    assert norm == 0.0 or abs(norm - 1.0) < 1e-9


@given(phrases)
@settings(max_examples=40)
def test_normalize_idempotent(value):
    once = text.normalize(value)
    assert text.normalize(once) == once
