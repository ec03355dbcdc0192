"""Lightweight string utilities shared across the library.

These helpers back the instance-wise retrieval scoring, several baselines
(Magellan/Ditto similarity features, WarpGate embeddings, IMP nearest
neighbours) and the simulated LLM's fuzzy matching.  Everything is pure Python
+ numpy so the library has no heavyweight NLP dependencies.
"""

from __future__ import annotations

import re
import zlib
from typing import Iterable, Sequence

import numpy as np

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def normalize(text: object) -> str:
    """Lower-case, strip and collapse whitespace of an arbitrary value."""
    return re.sub(r"\s+", " ", str(text)).strip().lower()


def tokenize(text: object) -> list[str]:
    """Split a value into lower-cased alphanumeric tokens."""
    return _TOKEN_RE.findall(normalize(text))


def char_ngrams(text: object, n: int = 3) -> list[str]:
    """Character n-grams of the normalised text (padded with spaces)."""
    s = f" {normalize(text)} "
    if len(s) < n:
        return [s]
    return [s[i : i + n] for i in range(len(s) - n + 1)]


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two token collections (0 when both empty)."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def token_jaccard(a: object, b: object) -> float:
    return jaccard(tokenize(a), tokenize(b))


def trigram_jaccard(a: object, b: object) -> float:
    return jaccard(char_ngrams(a), char_ngrams(b))


#: Cap on the string length fed to the edit-distance computation; longer
#: values are truncated (similarity of long texts is dominated by the
#: token/trigram components anyway).
_LEVENSHTEIN_MAX_LEN = 48


def _distance(a: str, b: str) -> int:
    """Levenshtein distance of two strings, bit-parallel (Myers 1999, in
    Hyyrö's form for whole strings).

    Column ``j`` of the dynamic program is held as two bit vectors over the
    rows, ``vp``/``vn``: bit ``i`` is set where cell ``(i, j)`` is one more
    (less) than the cell above it.  One character of ``b`` advances the whole
    column in a fixed number of integer operations, so the cost is
    ``O(len(b))`` Python steps instead of ``O(len(a) * len(b))``; the last
    row's running score is the distance.
    """
    if a == b:
        return 0
    if not a or not b:
        return len(a) + len(b)
    positions: dict[str, int] = {}
    for i, char in enumerate(a):
        positions[char] = positions.get(char, 0) | (1 << i)
    rows = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    vp, vn = rows, 0
    score = len(a)
    for char in b:
        eq = positions.get(char, 0)
        x = eq | vn
        d0 = (((x & vp) + vp) ^ vp) | x
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        # Row 0 grows by one a column (D[0][j] = j): shift a +1 in.
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(d0 | hp)) & rows
        vn = hp & d0 & rows
    return score


def levenshtein(a: str, b: str) -> int:
    """Edit distance of the normalised values, each cut to 48 characters."""
    return _distance(normalize(a)[:_LEVENSHTEIN_MAX_LEN], normalize(b)[:_LEVENSHTEIN_MAX_LEN])


def edit_similarity(a: object, b: object) -> float:
    """1 - normalised edit distance, in [0, 1]."""
    sa, sb = normalize(a), normalize(b)
    denom = max(len(sa), len(sb))
    if denom == 0:
        return 1.0
    return 1.0 - _distance(sa[:_LEVENSHTEIN_MAX_LEN], sb[:_LEVENSHTEIN_MAX_LEN]) / denom


def string_similarity(a: object, b: object) -> float:
    """Blend of token-, trigram- and edit-based similarity in [0, 1].

    A single blended score is more robust than any individual measure for the
    heterogeneous values found in lake tables (names, addresses, prices...).
    """
    return float(
        0.4 * token_jaccard(a, b)
        + 0.35 * trigram_jaccard(a, b)
        + 0.25 * edit_similarity(a, b)
    )


def numeric_similarity(a: object, b: object) -> float:
    """Relative-difference similarity for numeric-looking values, else 0."""
    try:
        fa, fb = float(str(a).replace("$", "").replace(",", "")), float(
            str(b).replace("$", "").replace(",", "")
        )
    except (TypeError, ValueError):
        return 0.0
    if fa == fb:
        return 1.0
    denom = max(abs(fa), abs(fb))
    if denom == 0:
        return 1.0
    return max(0.0, 1.0 - abs(fa - fb) / denom)


# ---------------------------------------------------------------------------
# Hashed n-gram embeddings (used by WarpGate and IMP).
# ---------------------------------------------------------------------------

def hashed_ngram_vector(text: object, dim: int = 256, n: int = 3) -> np.ndarray:
    """Embed a value as an L2-normalised hashed bag of character n-grams.

    A gram's bucket is its CRC-32, not the salted ``hash()``: an embedding
    is a function of the value, the same in every process.
    """
    vec = np.zeros(dim, dtype=np.float64)
    for gram in char_ngrams(text, n=n):
        vec[zlib.crc32(gram.encode()) % dim] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def embed_values(values: Sequence[object], dim: int = 256, n: int = 3) -> np.ndarray:
    """Stack hashed n-gram embeddings for a sequence of values."""
    if not values:
        return np.zeros((0, dim), dtype=np.float64)
    return np.vstack([hashed_ngram_vector(v, dim=dim, n=n) for v in values])


def attribute_name_similarity(a: str, b: str) -> float:
    """Similarity of attribute *names*, tolerant to underscores and casing."""
    ta = tokenize(a.replace("_", " "))
    tb = tokenize(b.replace("_", " "))
    return 0.5 * jaccard(ta, tb) + 0.5 * edit_similarity(" ".join(ta), " ".join(tb))
