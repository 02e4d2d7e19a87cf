"""Character q-gram similarity (default: 3-gram Jaccard).

The paper's experiments use 3-gram Jaccard for every categorical and textual
column (Section VII, Settings).  Example 2 computes e.g.
``3_gram_jaccard("SIGMOD Conference", "International Conference on Management
of Data") = 0.16``.

Tokenization is memoized once per process.  :func:`qgrams` is re-exported
from :mod:`repro.schema.entity`, the layer below this one, so its memo is
the same one :meth:`~repro.schema.entity.Entity.qgrams` fills: a string
tokenized by the S2 loop, by blocking or by an entity built from a service
request is tokenized once, whichever of them saw it first.
"""

from __future__ import annotations

from collections.abc import Set

from repro.schema.entity import qgrams

__all__ = ["jaccard", "qgram_jaccard", "qgrams"]


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
