"""Vectorized similarity kernels over precomputed column profiles.

The scalar path (:meth:`SimilarityModel.vector`) builds every similarity
vector one pair at a time: per column it intersects freshly materialized
q-gram ``frozenset``s or compares two floats.  S3 scores up to ``n_a * n_b``
cross pairs and the S2 rejection loop recomputes ``Delta X_syn`` on every
retry, so that scalar loop dominates SERD's online phase.

This module removes the loop.  Per relation (or ad-hoc entity list) we build
a :class:`RelationProfile` **once**:

- string-like columns become integer token-id CSR arrays — each row is the
  entity's q-gram set encoded against a shared :class:`TokenVocabulary`;
- numeric/date columns become dense float64 arrays with NaN marking missing
  values, carrying the model's fixed (min, max) range.

and score whole blocks of pairs with numpy:

- :func:`cross_block` — all-pairs similarity tensors for a row block of A
  against all of B (tile with :func:`iter_cross_blocks` to bound memory);
- :func:`one_vs_many` — one entity against every profile row (S2's
  ``Delta X_syn``);
- :func:`pairs` — explicit index-pair lists (S1 labeled-pair extraction and
  batched pair vectors).

Set intersections are sparse binary matrix products: ``|A & B|`` is a CSR
matmul and ``|A | B| = |A| + |B| - |A & B|``, so q-gram Jaccard over a whole
block is a handful of numpy operations.  All kernels reproduce the scalar
functions bit-for-bit — the same IEEE operations in the same order per
element — including the empty-vs-empty = 1.0, single-missing = 0.0 and
degenerate-range conventions of :func:`repro.similarity.ngram.jaccard` and
:func:`repro.similarity.numeric.numeric_similarity`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from repro.schema.entity import Entity
from repro.schema.types import Schema


class TokenVocabulary:
    """Monotone gram -> integer-id registry shared across profiles.

    Ids are assigned on first sight and never change, so profiles built at
    different times against the same vocabulary stay mutually comparable
    (the vocabulary only grows).  Encoded id arrays are cached per gram
    *set* — frozensets hash by content, entities memoize their gram sets,
    and categorical columns repeat few distinct values — so re-profiling a
    grown table re-derives nothing.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._encoded: dict[frozenset[str], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def encode(self, grams: frozenset[str]) -> np.ndarray:
        """Sorted int32 id array of ``grams``; unseen grams get fresh ids."""
        cached = self._encoded.get(grams)
        if cached is not None:
            return cached
        ids = self._ids
        row = np.fromiter(
            (ids.setdefault(gram, len(ids)) for gram in grams),
            dtype=np.int32,
            count=len(grams),
        )
        row.sort()
        row.setflags(write=False)
        self._encoded[grams] = row
        return row


class StringColumnProfile:
    """CSR-encoded q-gram sets of one string-like column.

    ``indices[indptr[i]:indptr[i+1]]`` are the sorted token ids of row ``i``;
    ``sizes[i]`` is the set cardinality.  The binary CSR matrix view is cached
    and rebuilt only when the shared vocabulary has grown past its width.
    """

    __slots__ = ("indptr", "indices", "sizes", "vocab", "_csr")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        sizes: np.ndarray,
        vocab: TokenVocabulary,
    ):
        self.indptr = indptr
        self.indices = indices
        self.sizes = sizes
        self.vocab = vocab
        self._csr: sparse.csr_matrix | None = None

    @property
    def n(self) -> int:
        return len(self.sizes)

    def matrix(self) -> sparse.csr_matrix:
        """Binary CSR matrix (n rows x current vocabulary width)."""
        width = len(self.vocab)
        if self._csr is None or self._csr.shape[1] < width:
            self._csr = sparse.csr_matrix(
                (
                    np.ones(len(self.indices), dtype=np.float64),
                    self.indices.astype(np.int64, copy=False),
                    self.indptr,
                ),
                shape=(self.n, max(width, 1)),
            )
        return self._csr


class NumericColumnProfile:
    """Dense float view of one numeric/date column (NaN = missing)."""

    __slots__ = ("values", "low", "high")

    def __init__(self, values: np.ndarray, low: float, high: float):
        self.values = values
        self.low = low
        self.high = high

    @property
    def n(self) -> int:
        return len(self.values)


ColumnProfile = StringColumnProfile | NumericColumnProfile


class RelationProfile:
    """Per-column profiles of one relation (or ad-hoc entity list)."""

    __slots__ = ("schema", "qgram", "columns", "n", "row_of")

    def __init__(
        self,
        schema: Schema,
        qgram: int,
        columns: Sequence[ColumnProfile],
        row_of: dict[str, int],
    ):
        self.schema = schema
        self.qgram = qgram
        self.columns = tuple(columns)
        self.n = self.columns[0].n if self.columns else 0
        self.row_of = row_of


def build_profile(
    schema: Schema,
    entities: Iterable[Entity],
    *,
    qgram: int,
    ranges: dict[str, tuple[float, float]],
    vocab: TokenVocabulary,
) -> RelationProfile:
    """Profile ``entities`` under ``schema``.

    String-like columns go through :meth:`Entity.qgrams` (the per-entity
    memo) and :meth:`TokenVocabulary.encode` (the per-set memo), so repeated
    profiling of overlapping entity lists re-derives nothing.  Alignment is
    positional: ``schema`` is the model's schema, which may use different
    column names than a B-side relation.
    """
    entity_list = list(entities)
    columns: list[ColumnProfile] = []
    for index, attr in enumerate(schema):
        if attr.attr_type.is_string_like:
            rows = [vocab.encode(e.qgrams(index, qgram)) for e in entity_list]
            sizes = np.array([len(row) for row in rows], dtype=np.int64)
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            indices = (
                np.concatenate(rows).astype(np.int32, copy=False)
                if rows
                else np.empty(0, dtype=np.int32)
            )
            columns.append(StringColumnProfile(indptr, indices, sizes, vocab))
        else:
            low, high = ranges[attr.name]
            values = np.array(
                [
                    np.nan if e.values[index] is None else float(e.values[index])
                    for e in entity_list
                ],
                dtype=np.float64,
            )
            columns.append(NumericColumnProfile(values, float(low), float(high)))
    row_of = {entity.entity_id: row for row, entity in enumerate(entity_list)}
    return RelationProfile(schema, qgram, columns, row_of)


def extend_profile(
    profile: RelationProfile, entities: Iterable[Entity]
) -> RelationProfile:
    """A new profile covering ``profile``'s rows plus appended ``entities``.

    The append-only fast path behind :meth:`SimilarityModel.profile`: when a
    relation has only *grown* since it was profiled (the S2 loop appends one
    accepted entity at a time), the existing CSR/numeric arrays are reused
    and only the new rows are encoded — O(new entities), not O(relation).
    The input profile is not mutated (its arrays may be shared by callers
    still scoring against the old row count).
    """
    new_entities = list(entities)
    if not new_entities:
        return profile
    columns: list[ColumnProfile] = []
    for index, column in enumerate(profile.columns):
        if isinstance(column, StringColumnProfile):
            rows = [
                column.vocab.encode(e.qgrams(index, profile.qgram))
                for e in new_entities
            ]
            new_sizes = np.array([len(row) for row in rows], dtype=np.int64)
            sizes = np.concatenate([column.sizes, new_sizes])
            indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            indices = np.concatenate(
                [column.indices, *rows] if rows else [column.indices]
            ).astype(np.int32, copy=False)
            columns.append(StringColumnProfile(indptr, indices, sizes, column.vocab))
        else:
            new_values = np.array(
                [
                    np.nan if e.values[index] is None else float(e.values[index])
                    for e in new_entities
                ],
                dtype=np.float64,
            )
            columns.append(
                NumericColumnProfile(
                    np.concatenate([column.values, new_values]),
                    column.low,
                    column.high,
                )
            )
    row_of = dict(profile.row_of)
    for offset, entity in enumerate(new_entities):
        row_of[entity.entity_id] = profile.n + offset
    return RelationProfile(profile.schema, profile.qgram, columns, row_of)


# ----------------------------------------------------------------------
# Per-column block kernels
# ----------------------------------------------------------------------
def _jaccard_from_counts(
    inter: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
) -> np.ndarray:
    """Jaccard from intersection counts; empty-vs-empty = 1.0.

    ``inter / (|a| + |b| - inter)`` over exact small integers reproduces the
    scalar float division bit-for-bit; a single empty set yields 0/positive
    = 0.0 exactly as the scalar early-out does.
    """
    union = sizes_a + sizes_b - inter
    sim = np.divide(
        inter, union, out=np.zeros_like(inter, dtype=np.float64), where=union > 0
    )
    both_empty = (sizes_a == 0) & (sizes_b == 0)
    if both_empty.any():
        sim = np.where(both_empty, 1.0, sim)
    return sim


def _numeric_similarity_block(
    values_a: np.ndarray, values_b: np.ndarray, low: float, high: float
) -> np.ndarray:
    """Elementwise (broadcast) numeric similarity with missing-value rules."""
    span = high - low
    nan_a = np.isnan(values_a)
    nan_b = np.isnan(values_b)
    if span == 0:
        sim = (values_a == values_b).astype(np.float64)
    else:
        with np.errstate(invalid="ignore"):
            sim = 1.0 - np.abs(values_a - values_b) / span
            sim = np.clip(sim, 0.0, 1.0)
    sim = np.where(nan_a & nan_b, 1.0, sim)
    sim = np.where(nan_a ^ nan_b, 0.0, sim)
    return sim


def _string_cross(
    col_a: StringColumnProfile, col_b: StringColumnProfile, rows: slice
) -> np.ndarray:
    inter = (col_a.matrix()[rows] @ col_b.matrix().T).toarray()
    sizes_a = col_a.sizes[rows].astype(np.float64)[:, None]
    sizes_b = col_b.sizes.astype(np.float64)[None, :]
    return _jaccard_from_counts(inter, sizes_a, sizes_b)


def _gather_row_tokens(
    column: StringColumnProfile, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(pair_position, token_id)`` arrays of the selected rows, flattened."""
    lengths = column.sizes[idx]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    starts = column.indptr[idx]
    row_starts = np.cumsum(lengths) - lengths
    # Index into the CSR data for each flattened element: the row's start
    # plus the element's offset within its row.
    flat = np.arange(total, dtype=np.int64)
    within = flat - np.repeat(row_starts, lengths)
    tokens = column.indices[np.repeat(starts, lengths) + within].astype(np.int64)
    positions = np.repeat(np.arange(len(idx), dtype=np.int64), lengths)
    return positions, tokens


def _string_pairs(
    col_a: StringColumnProfile,
    col_b: StringColumnProfile,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
) -> np.ndarray:
    """Per-pair intersection counts via row-keyed sorted-set intersection.

    Each (pair position, token) is packed into one int64 key; the
    intersection of the two key sets, bucketed by pair position, is exactly
    ``|row_a & row_b|`` per pair.  Pure numpy — far cheaper than sparse row
    indexing for gather-shaped workloads.
    """
    width = np.int64(max(len(col_a.vocab), 1))
    pos_a, tok_a = _gather_row_tokens(col_a, idx_a)
    pos_b, tok_b = _gather_row_tokens(col_b, idx_b)
    keys_a = pos_a * width + tok_a
    keys_b = pos_b * width + tok_b
    common = np.intersect1d(keys_a, keys_b, assume_unique=True)
    inter = np.bincount(common // width, minlength=len(idx_a)).astype(np.float64)
    sizes_a = col_a.sizes[idx_a].astype(np.float64)
    sizes_b = col_b.sizes[idx_b].astype(np.float64)
    return _jaccard_from_counts(inter, sizes_a, sizes_b)


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------
def cross_block(
    profile_a: RelationProfile,
    profile_b: RelationProfile,
    rows: slice | None = None,
) -> np.ndarray:
    """Similarity tensor ``(n_rows, n_b, l)`` for a row block of A vs all B.

    ``rows`` selects a contiguous block of A-rows (default: all).  Memory is
    ``n_rows * n_b * l`` float64 — use :func:`iter_cross_blocks` to bound it.
    """
    row_slice = rows if rows is not None else slice(None)
    n_rows = len(range(*row_slice.indices(profile_a.n)))
    out = np.empty((n_rows, profile_b.n, len(profile_a.columns)), dtype=np.float64)
    for k, (col_a, col_b) in enumerate(zip(profile_a.columns, profile_b.columns)):
        if isinstance(col_a, StringColumnProfile):
            out[:, :, k] = _string_cross(col_a, col_b, row_slice)
        else:
            out[:, :, k] = _numeric_similarity_block(
                col_a.values[row_slice][:, None],
                col_b.values[None, :],
                col_a.low,
                col_a.high,
            )
    return out


def iter_cross_blocks(
    profile_a: RelationProfile,
    profile_b: RelationProfile,
    *,
    max_cells: int = 4096,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, tensor)`` row tiles of the full cross product.

    Each tensor is ``(stop - start, n_b, l)``; tiles hold at most roughly
    ``max_cells`` pairs so peak memory stays bounded regardless of table
    sizes.
    """
    tile_rows = max(1, max_cells // max(1, profile_b.n))
    for start in range(0, profile_a.n, tile_rows):
        stop = min(start + tile_rows, profile_a.n)
        yield start, stop, cross_block(profile_a, profile_b, slice(start, stop))


def one_vs_many(profile: RelationProfile, entity: Entity) -> np.ndarray:
    """Similarity vectors ``(n, l)`` of ``entity`` against every profile row.

    This is S2's ``Delta X_syn`` shape: a candidate entity scored against
    (a sample of) the opposite table.  Unlike the block kernels this avoids
    sparse-matrix construction entirely — intersection counts come from a
    ``searchsorted`` membership test over the column's CSR indices plus a
    cumulative-sum row reduction — because ``Delta X_syn`` is recomputed on
    every S2 rejection retry and the call must stay cheap at small ``n``.
    """
    out = np.empty((profile.n, len(profile.columns)), dtype=np.float64)
    for k, column in enumerate(profile.columns):
        if isinstance(column, StringColumnProfile):
            entity_ids = column.vocab.encode(entity.qgrams(k, profile.qgram))
            inter = _row_intersection_counts(column, entity_ids)
            out[:, k] = _jaccard_from_counts(
                inter, np.float64(len(entity_ids)), column.sizes.astype(np.float64)
            )
        else:
            value = entity.values[k]
            scalar = np.float64(np.nan if value is None else float(value))
            out[:, k] = _numeric_similarity_block(
                scalar, column.values, column.low, column.high
            )
    return out


def _row_intersection_counts(
    column: StringColumnProfile, entity_ids: np.ndarray
) -> np.ndarray:
    """``|row & entity_ids|`` for every CSR row, without sparse matrices."""
    if not len(entity_ids) or not len(column.indices):
        return np.zeros(column.n, dtype=np.float64)
    positions = np.searchsorted(entity_ids, column.indices)
    positions[positions == len(entity_ids)] = len(entity_ids) - 1
    hits = entity_ids[positions] == column.indices
    cumulative = np.zeros(len(hits) + 1, dtype=np.int64)
    np.cumsum(hits, out=cumulative[1:])
    return (
        cumulative[column.indptr[1:]] - cumulative[column.indptr[:-1]]
    ).astype(np.float64)


def pairs(
    profile_a: RelationProfile,
    profile_b: RelationProfile,
    idx_a: np.ndarray | Sequence[int],
    idx_b: np.ndarray | Sequence[int],
) -> np.ndarray:
    """Similarity vectors ``(n_pairs, l)`` for explicit row-index pairs.

    Used for S1 labeled-pair extraction and ``SimilarityModel.vectors``,
    where the caller has already decided *which* pairs to score.
    """
    idx_a = np.asarray(idx_a, dtype=np.int64)
    idx_b = np.asarray(idx_b, dtype=np.int64)
    if idx_a.shape != idx_b.shape:
        raise ValueError(
            f"index arrays disagree on shape: {idx_a.shape} vs {idx_b.shape}"
        )
    out = np.empty((len(idx_a), len(profile_a.columns)), dtype=np.float64)
    if not len(idx_a):
        return out
    for k, (col_a, col_b) in enumerate(zip(profile_a.columns, profile_b.columns)):
        if isinstance(col_a, StringColumnProfile):
            out[:, k] = _string_pairs(col_a, col_b, idx_a, idx_b)
        else:
            out[:, k] = _numeric_similarity_block(
                col_a.values[idx_a], col_b.values[idx_b], col_a.low, col_a.high
            )
    return out
