"""Similarity-vector computation over an aligned schema.

:class:`SimilarityModel` binds a schema to concrete similarity functions and
column ranges, and turns entity pairs into similarity vectors — the ``x``
objects everything downstream (GMMs, matchers, SERD itself) consumes.

Two execution paths exist.  The scalar path (:meth:`SimilarityModel.vector`)
computes one pair at a time and is the *reference implementation*.  The batch
entry points (:meth:`vectors`, :meth:`one_vs_many`, :meth:`pairs_for_ids`)
route calls above the ``KERNEL_MIN_*`` sizes through
:mod:`repro.similarity.kernels` — precomputed column profiles scored with
sparse matrix products — and reproduce the scalar results bit-for-bit
(property-tested) while being orders of magnitude faster on large pair
sets.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.schema.entity import Entity, Relation
from repro.schema.types import AttributeType, Schema
from repro.similarity import kernels
from repro.similarity.ngram import jaccard, qgram_jaccard
from repro.similarity.numeric import numeric_similarity

# Measured scalar/kernel crossover points (pairs per call).  Below these the
# scalar reference path is faster — per-call profile encoding and numpy
# dispatch overhead beat a handful of frozenset intersections — and since
# both paths are bit-identical the dispatch is purely a performance choice.
KERNEL_MIN_ONE_VS_MANY = 24
KERNEL_MIN_PAIRS_FOR_IDS = 16
KERNEL_MIN_VECTORS = 64


class SimilarityModel:
    """Schema-bound similarity-vector computer.

    Parameters
    ----------
    schema:
        The aligned schema ``{C_1, ..., C_l}``.
    ranges:
        ``{column: (min, max)}`` for every numeric/date column.  Ranges are
        fixed at construction (from the real dataset) so real and synthetic
        pairs are measured identically, as the paper's formula requires.
    qgram:
        q for string columns' q-gram Jaccard (paper default: 3).
    """

    def __init__(
        self,
        schema: Schema,
        ranges: dict[str, tuple[float, float]] | None = None,
        qgram: int = 3,
    ):
        self.schema = schema
        self.qgram = qgram
        self.ranges: dict[str, tuple[float, float]] = dict(ranges or {})
        for attr in schema:
            if attr.attr_type in (AttributeType.NUMERIC, AttributeType.DATE):
                if attr.name not in self.ranges:
                    raise ValueError(
                        f"numeric/date column {attr.name!r} needs a (min, max) range"
                    )
        # One vocabulary per model: every profile this model builds encodes
        # q-grams against it, so profiles stay mutually comparable.
        self._vocab = kernels.TokenVocabulary()
        # Telemetry for the append-only profile cache: full builds vs
        # incremental extensions (the regression suite pins the ratio).
        self.profile_builds = 0
        self.profile_extensions = 0

    @classmethod
    def from_relations(
        cls,
        table_a: Relation,
        table_b: Relation,
        qgram: int = 3,
    ) -> "SimilarityModel":
        """Build a model whose ranges span both relations' observed values.

        The two relations must be positionally aligned: same number of
        columns with the same attribute type at each position (names may
        differ — the paper's schema alignment is positional, e.g. ``gender``
        vs ``sex``).  A misaligned B-side raises ``ValueError`` instead of
        silently measuring apples against oranges.
        """
        schema = table_a.schema
        _validate_alignment(schema, table_b.schema)
        ranges: dict[str, tuple[float, float]] = {}
        for index, attr in enumerate(schema):
            if attr.attr_type not in (AttributeType.NUMERIC, AttributeType.DATE):
                continue
            lows, highs = [], []
            for table in (table_a, table_b):
                values = [
                    float(entity.values[index])
                    for entity in table
                    if entity.values[index] is not None
                ]
                if values:
                    lows.append(min(values))
                    highs.append(max(values))
            if not lows:
                raise ValueError(f"column {attr.name!r} is empty in both relations")
            ranges[attr.name] = (min(lows), max(highs))
        return cls(schema, ranges, qgram=qgram)

    # ------------------------------------------------------------------
    # Per-column and per-pair similarity (scalar reference path)
    # ------------------------------------------------------------------
    def column_similarity(self, attr_index: int, entity_a: Entity, entity_b: Entity) -> float:
        """Similarity of one aligned column of an entity pair."""
        attr = self.schema[attr_index]
        value_a = entity_a.values[attr_index]
        value_b = entity_b.values[attr_index]
        if attr.attr_type.is_string_like:
            return jaccard(
                entity_a.qgrams(attr_index, self.qgram),
                entity_b.qgrams(attr_index, self.qgram),
            )
        if value_a is None and value_b is None:
            return 1.0
        if value_a is None or value_b is None:
            return 0.0
        return numeric_similarity(float(value_a), float(value_b), self.ranges[attr.name])

    def vector(self, entity_a: Entity, entity_b: Entity) -> np.ndarray:
        """The similarity vector ``x_(a,b)`` (shape ``(l,)``, dtype float64)."""
        return np.array(
            [self.column_similarity(i, entity_a, entity_b) for i in range(len(self.schema))],
            dtype=np.float64,
        )

    def value_similarity(self, attr_name: str, value_a, value_b) -> float:
        """Similarity of two raw values under a column's function.

        Convenience for synthesis code that probes candidate values before an
        Entity exists.
        """
        attr = self.schema[attr_name]
        if attr.attr_type.is_string_like:
            return qgram_jaccard(
                "" if value_a is None else str(value_a),
                "" if value_b is None else str(value_b),
                q=self.qgram,
            )
        if value_a is None and value_b is None:
            return 1.0
        if value_a is None or value_b is None:
            return 0.0
        return numeric_similarity(float(value_a), float(value_b), self.ranges[attr.name])

    # ------------------------------------------------------------------
    # Column profiles (kernel layer)
    # ------------------------------------------------------------------
    def profile(self, relation: Relation) -> kernels.RelationProfile:
        """The relation's column profile, cached on the relation itself.

        Keyed by this model's vocabulary, so two models profiling the same
        relation never collide.  Relations are append-only, so a cached
        profile that has fallen behind (``Relation.add`` since it was
        built) is *extended* over the appended tail — O(new rows) — rather
        than rebuilt from scratch; a full build happens only on first
        profiling.  ``profile_builds`` / ``profile_extensions`` count the
        two paths; an extension produces the same profile as a rebuild
        (property-tested).
        """
        cache = relation.profile_cache
        key = (self._vocab, self.qgram)
        profile = cache.get(key)
        if profile is not None and profile.n == len(relation):
            return profile
        if profile is not None and profile.n < len(relation):
            profile = kernels.extend_profile(
                profile, relation.entities[profile.n :]
            )
            self.profile_extensions += 1
        else:
            profile = kernels.build_profile(
                self.schema,
                relation.entities,
                qgram=self.qgram,
                ranges=self.ranges,
                vocab=self._vocab,
            )
            self.profile_builds += 1
        cache[key] = profile
        return profile

    def profile_entities(self, entities: Sequence[Entity]) -> kernels.RelationProfile:
        """An uncached profile of an ad-hoc entity list."""
        return kernels.build_profile(
            self.schema,
            entities,
            qgram=self.qgram,
            ranges=self.ranges,
            vocab=self._vocab,
        )

    # ------------------------------------------------------------------
    # Batch computation
    # ------------------------------------------------------------------
    def vectors(self, pairs: Iterable[tuple[Entity, Entity]]) -> np.ndarray:
        """Similarity vectors for many pairs, stacked into ``(n, l)``."""
        pair_list = pairs if isinstance(pairs, list) else list(pairs)
        if not pair_list:
            return np.empty((0, len(self.schema)), dtype=np.float64)
        if len(pair_list) < KERNEL_MIN_VECTORS:
            return self.vectors_scalar(pair_list)
        # Profile each side's *distinct* entities once, then score the pair
        # list as a row gather — repeated entities (one-vs-many shapes, star
        # patterns) cost one profile row, not one per occurrence.
        left = _unique_rows(a for a, _ in pair_list)
        right = _unique_rows(b for _, b in pair_list)
        profile_a = self.profile_entities(list(left))
        profile_b = self.profile_entities(list(right))
        idx_a = np.fromiter(
            (left[a] for a, _ in pair_list), dtype=np.int64, count=len(pair_list)
        )
        idx_b = np.fromiter(
            (right[b] for _, b in pair_list), dtype=np.int64, count=len(pair_list)
        )
        return kernels.pairs(profile_a, profile_b, idx_a, idx_b)

    def vectors_scalar(self, pairs: Iterable[tuple[Entity, Entity]]) -> np.ndarray:
        """Reference implementation of :meth:`vectors` (one pair at a time)."""
        rows = [self.vector(a, b) for a, b in pairs]
        if not rows:
            return np.empty((0, len(self.schema)), dtype=np.float64)
        return np.vstack(rows)

    def one_vs_many(self, entity: Entity, others: Sequence[Entity]) -> np.ndarray:
        """Similarity vectors of ``entity`` against each of ``others``.

        Used by SERD's rejection step to compute ``Delta X_syn`` (the vectors
        between a candidate entity and the opposite table).
        """
        others = list(others)
        if not others:
            return np.empty((0, len(self.schema)), dtype=np.float64)
        if len(others) < KERNEL_MIN_ONE_VS_MANY:
            return self.vectors_scalar((entity, other) for other in others)
        return kernels.one_vs_many(self.profile_entities(others), entity)

    def pairs_for_ids(
        self,
        table_a: Relation,
        table_b: Relation,
        id_pairs: Iterable[tuple[str, str]],
    ) -> np.ndarray:
        """Similarity vectors for id pairs resolved against cached profiles.

        The fast path for S1: both relations are profiled once (cached) and
        each id pair costs a row gather instead of a fresh pair of set
        intersections.
        """
        pair_list = list(id_pairs)
        if not pair_list:
            return np.empty((0, len(self.schema)), dtype=np.float64)
        if len(pair_list) < KERNEL_MIN_PAIRS_FOR_IDS:
            return self.vectors_scalar(
                (table_a[a], table_b[b]) for a, b in pair_list
            )
        profile_a = self.profile(table_a)
        profile_b = self.profile(table_b)
        idx_a = np.fromiter(
            (profile_a.row_of[a] for a, _ in pair_list), dtype=np.int64,
            count=len(pair_list),
        )
        idx_b = np.fromiter(
            (profile_b.row_of[b] for _, b in pair_list), dtype=np.int64,
            count=len(pair_list),
        )
        return kernels.pairs(profile_a, profile_b, idx_a, idx_b)


def _unique_rows(entities: Iterable[Entity]) -> dict[Entity, int]:
    """First-seen row index per distinct entity (insertion-ordered)."""
    rows: dict[Entity, int] = {}
    for entity in entities:
        if entity not in rows:
            rows[entity] = len(rows)
    return rows


def _validate_alignment(schema_a: Schema, schema_b: Schema) -> None:
    """Raise ``ValueError`` unless the two schemas align positionally."""
    if schema_b is schema_a or schema_b == schema_a:
        return
    if len(schema_b) != len(schema_a):
        raise ValueError(
            f"table_b's schema has {len(schema_b)} columns but table_a's has "
            f"{len(schema_a)}; the relations are not aligned"
        )
    for position, (attr_a, attr_b) in enumerate(zip(schema_a, schema_b)):
        if attr_a.attr_type != attr_b.attr_type:
            raise ValueError(
                f"schema mismatch at column {position}: table_a "
                f"{attr_a.name!r} is {attr_a.attr_type.value} but table_b "
                f"{attr_b.name!r} is {attr_b.attr_type.value}"
            )


def pair_vectors(
    model: SimilarityModel,
    table_a: Relation,
    table_b: Relation,
    matches: Iterable[tuple[str, str]],
    non_matches: Iterable[tuple[str, str]],
) -> tuple[np.ndarray, np.ndarray]:
    """Compute ``(X+, X-)`` for explicit pair-id lists (paper Fig. 1(c))."""
    x_pos = model.pairs_for_ids(table_a, table_b, matches)
    x_neg = model.pairs_for_ids(table_a, table_b, non_matches)
    return x_pos, x_neg
