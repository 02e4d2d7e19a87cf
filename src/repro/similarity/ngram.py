"""Character q-gram similarity (default: 3-gram Jaccard).

The paper's experiments use 3-gram Jaccard for every categorical and textual
column (Section VII, Settings).  Example 2 computes e.g.
``3_gram_jaccard("SIGMOD Conference", "International Conference on Management
of Data") = 0.16``.

Tokenization is memoized: the S2 loop scores every candidate string
against the same reference pools, re-deriving the same gram sets millions
of times per run.  ``qgrams`` is a pure function, so the cache is
observationally invisible.
"""

from __future__ import annotations

from collections.abc import Set

_GRAM_CACHE: dict[tuple[int, str], frozenset[str]] = {}
# Bound memory on pathological workloads (every string unique forever):
# one entry is a key plus a small frozenset, so ~128k entries stay in the
# tens of MB. Overflow clears wholesale — the working set re-warms in one
# pass and wholesale is cheaper than tracking recency per hit.
_GRAM_CACHE_MAX = 1 << 17


def _tokenize(text: str, q: int) -> frozenset[str]:
    text = text.lower()
    if not text:
        return frozenset()
    if len(text) < q:
        return frozenset((text,))
    return frozenset(text[i : i + q] for i in range(len(text) - q + 1))


def qgrams(text: str, q: int = 3) -> frozenset[str]:
    """The set of character q-grams of ``text`` (case-insensitive).

    Strings shorter than ``q`` contribute themselves as a single gram, so a
    non-empty short string is still similar to itself:

    >>> sorted(qgrams("abcd", 3))
    ['abc', 'bcd']
    >>> sorted(qgrams("ab", 3))
    ['ab']
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    key = (q, text)
    grams = _GRAM_CACHE.get(key)
    if grams is None:
        if len(_GRAM_CACHE) >= _GRAM_CACHE_MAX:
            _GRAM_CACHE.clear()
        _GRAM_CACHE[key] = grams = _tokenize(text, q)
    return grams


def jaccard(set_a: Set[str], set_b: Set[str]) -> float:
    """Jaccard similarity ``|A & B| / |A | B|`` of two sets.

    Two empty sets are defined to be identical (similarity 1.0) so that two
    missing values compare as equal; one empty set against a non-empty set
    yields 0.0.
    """
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    intersection = len(set_a & set_b)
    if intersection == 0:
        return 0.0
    return intersection / (len(set_a) + len(set_b) - intersection)


def qgram_jaccard(text_a: str, text_b: str, q: int = 3) -> float:
    """Jaccard similarity of the q-gram sets of two strings.

    >>> round(qgram_jaccard("Generalised Hash Teams", "Generalised Hash Teams"), 2)
    1.0
    >>> qgram_jaccard("", "")
    1.0
    """
    return jaccard(qgrams(text_a, q), qgrams(text_b, q))
