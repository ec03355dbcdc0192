"""Unit tests for the string similarity utilities."""

import numpy as np
import pytest

from repro.datalake import text


def test_normalize_collapses_whitespace_and_case():
    assert text.normalize("  Hello   World ") == "hello world"
    assert text.normalize(42) == "42"


def test_tokenize_alphanumeric_only():
    assert text.tokenize("Hello, world! 42") == ["hello", "world", "42"]
    assert text.tokenize("") == []


def test_char_ngrams_short_string():
    grams = text.char_ngrams("ab", n=3)
    assert grams == [" ab "][:1] or len(grams) >= 1


def test_jaccard_basics():
    assert text.jaccard([], []) == 0.0
    assert text.jaccard(["a"], ["a"]) == 1.0
    assert text.jaccard(["a"], ["b"]) == 0.0
    assert text.token_jaccard("red fox", "red dog") == pytest.approx(1 / 3)


def test_levenshtein_known_values():
    assert text.levenshtein("kitten", "sitting") == 3
    assert text.levenshtein("abc", "abc") == 0
    assert text.levenshtein("", "abc") == 3
    assert text.levenshtein("abc", "") == 3


def test_edit_similarity_bounds():
    assert text.edit_similarity("same", "same") == 1.0
    assert text.edit_similarity("", "") == 1.0
    assert 0.0 <= text.edit_similarity("abc", "xyz") <= 1.0


def test_string_similarity_orders_related_strings():
    close = text.string_similarity("ruth's chris steak house", "ruth's chris steakhouse")
    far = text.string_similarity("ruth's chris steak house", "golden dragon noodle bar")
    assert close > far
    assert 0.0 <= far <= close <= 1.0


def test_numeric_similarity():
    assert text.numeric_similarity("100", "100") == 1.0
    assert text.numeric_similarity("$100", "100") == 1.0
    assert text.numeric_similarity("100", "50") == pytest.approx(0.5)
    assert text.numeric_similarity("abc", "100") == 0.0
    assert text.numeric_similarity("0", "0") == 1.0


def test_hashed_ngram_vector_is_normalised():
    vec = text.hashed_ngram_vector("hello world", dim=64)
    assert vec.shape == (64,)
    assert np.isclose(np.linalg.norm(vec), 1.0)


def test_embed_values_shapes():
    matrix = text.embed_values(["a", "b", "c"], dim=32)
    assert matrix.shape == (3, 32)
    assert text.embed_values([], dim=32).shape == (0, 32)


def test_embed_values_is_the_same_in_every_process():
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(text.__file__).resolve().parents[2])
    script = (
        "import json; from repro.datalake.text import embed_values; "
        "print(json.dumps(embed_values(['Apple iPhone 12', 'sony tv', '42'], dim=32).tolist()))"
    )
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]
    assert np.allclose(outputs[0], text.embed_values(["Apple iPhone 12", "sony tv", "42"], dim=32))


def test_attribute_name_similarity_handles_underscores():
    assert text.attribute_name_similarity("country_full", "country") > 0.4
    assert text.attribute_name_similarity("price", "color") < 0.4
