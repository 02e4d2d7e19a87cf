"""Similarity functions and similarity-vector computation.

Paper Section II-B: an entity pair ``(a, b)`` is represented by its
*similarity vector* ``x = (f_i(a[C_i], b[C_i]))`` over the aligned schema.
The experiment settings (Section VII) use 3-gram Jaccard for categorical and
textual columns and a range-normalized absolute difference for numeric
columns; we also provide edit-distance and Jaro-Winkler similarities for the
textgen substrate and the NP-hardness example.
"""

from repro.similarity import kernels
from repro.similarity.edit import (
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    normalized_edit_similarity,
)
from repro.similarity.functions import SimilarityFunction, get_similarity_function
from repro.similarity.ngram import jaccard, qgram_jaccard, qgrams
from repro.similarity.numeric import date_similarity, numeric_similarity
from repro.similarity.vector import SimilarityModel, pair_vectors

__all__ = [
    "SimilarityFunction",
    "SimilarityModel",
    "date_similarity",
    "get_similarity_function",
    "jaccard",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "kernels",
    "levenshtein_distance",
    "normalized_edit_similarity",
    "numeric_similarity",
    "pair_vectors",
    "qgram_jaccard",
    "qgrams",
]
