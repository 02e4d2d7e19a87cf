"""Per-column value synthesis (paper Section IV-B1).

Given a sampled entity ``e`` and a sampled similarity vector ``x``,
synthesize ``e'`` column by column so that ``f_i(e[C_i], e'[C_i]) ~= x[i]``:

- **numeric** — solve the range-normalized formula for the two candidate
  values ``e[C] +/- (1 - x[i]) * span`` and sample one;
- **date** — same, rounded to an integral ordinal;
- **categorical** — scan the column's value set for the closest-achievable
  similarity;
- **text** — delegate to the column's text-synthesis backend (Section VI).
"""

from __future__ import annotations

import numpy as np

from repro.schema.entity import Entity
from repro.schema.types import AttributeType, Schema
from repro.similarity.numeric import invert_numeric_similarity
from repro.similarity.vector import SimilarityModel
from repro.textgen.backend import TextSynthesizer


class EntityFactory:
    """Synthesizes new entities from (anchor entity, similarity vector).

    Parameters
    ----------
    similarity_model:
        Column similarity functions and numeric ranges (fixed from the real
        dataset at S1 time).
    categorical_values:
        ``{side: {column: values}}`` with sides ``"a"`` and ``"b"`` — the
        candidate sets for categorical synthesis ("we do not synthesize new
        values beyond existing ones", IV-B1).  Pools are kept per side
        because the two relations of a real ER dataset often use different
        namings for the same concept (``SIGMOD Conference`` vs
        ``International Conference on Management of Data``); a union pool
        would let synthetic cross-table pairs collide exactly where real
        ones never do.
    text_backends:
        ``{column: TextSynthesizer}`` — one trained backend per text column.
    """

    SIDES = ("a", "b")

    def __init__(
        self,
        similarity_model: SimilarityModel,
        categorical_values: dict[str, dict[str, list]],
        text_backends: dict[str, TextSynthesizer],
    ):
        self.similarity_model = similarity_model
        self.schema: Schema = similarity_model.schema
        self.categorical_values = categorical_values
        self.text_backends = text_backends
        # Achieved similarities of every pool value against one anchor
        # value, per (column, side, anchor value); bounded by the squared
        # pool sizes, since anchors carry pool values too.
        self._categorical_memo: dict[tuple[str, str, str], np.ndarray] = {}
        for side in self.SIDES:
            if side not in categorical_values:
                raise ValueError(f"categorical_values missing side {side!r}")
        for attr in self.schema:
            if attr.attr_type == AttributeType.CATEGORICAL:
                for side in self.SIDES:
                    if not categorical_values[side].get(attr.name):
                        raise ValueError(
                            f"no categorical values for column {attr.name!r} "
                            f"on side {side!r}"
                        )
            elif attr.attr_type == AttributeType.TEXT:
                if attr.name not in text_backends:
                    raise ValueError(f"no text backend for column {attr.name!r}")

    # ------------------------------------------------------------------
    # Column synthesizers
    # ------------------------------------------------------------------
    def _numeric(
        self, attr_name: str, anchor, target: float, rng: np.random.Generator,
        *, integral: bool,
    ):
        bounds = self.similarity_model.ranges[attr_name]
        direction = 1 if rng.random() < 0.5 else -1
        candidate = invert_numeric_similarity(
            float(anchor), target, bounds, direction=direction
        )
        # If clamping spoiled the similarity, the other direction may be exact.
        other = invert_numeric_similarity(
            float(anchor), target, bounds, direction=-direction
        )
        achieved = self.similarity_model.value_similarity(attr_name, anchor, candidate)
        achieved_other = self.similarity_model.value_similarity(attr_name, anchor, other)
        if abs(achieved_other - target) < abs(achieved - target):
            candidate = other
        if integral:
            return int(round(candidate))
        return round(float(candidate), 2)

    def _categorical(
        self, attr_name: str, anchor, target: float, rng: np.random.Generator,
        side: str,
    ):
        # Collect every value whose achieved similarity ties for closest to
        # the target (within a small epsilon) and sample uniformly among
        # them.  Categorical similarities are mostly {0, 1}, so a
        # first-wins argmin would deterministically collapse the synthetic
        # column onto one value and destroy the cross-pair distribution.
        pool = self.categorical_values[side][attr_name]
        # Categorical columns are string-like: the similarity sees only
        # the anchor's string form.
        key = (attr_name, side, "" if anchor is None else str(anchor))
        achieved = self._categorical_memo.get(key)
        if achieved is None:
            achieved = np.array([
                self.similarity_model.value_similarity(attr_name, anchor, value)
                for value in pool
            ])
            self._categorical_memo[key] = achieved
        gaps = np.abs(achieved - target)
        ties = np.flatnonzero(gaps <= gaps.min() + 1e-9)
        return pool[int(ties[int(rng.integers(len(ties)))])]

    def _text(self, attr_name: str, anchor, target: float, rng: np.random.Generator):
        backend = self.text_backends[attr_name]
        source = "" if anchor is None else str(anchor)
        return backend.synthesize(source, target, rng).text

    # ------------------------------------------------------------------
    # Entity synthesis
    # ------------------------------------------------------------------
    def synthesize_value(
        self, attr_name: str, anchor, target: float, rng: np.random.Generator,
        side: str = "a",
    ):
        """One column value with ``sim(anchor, value) ~= target``.

        ``side`` is the table the new value belongs to ("a" or "b") —
        categorical pools are per side.
        """
        attr = self.schema[attr_name]
        target = float(np.clip(target, 0.0, 1.0))
        if attr.attr_type == AttributeType.NUMERIC:
            return self._numeric(attr_name, anchor, target, rng, integral=False)
        if attr.attr_type == AttributeType.DATE:
            return self._numeric(attr_name, anchor, target, rng, integral=True)
        if attr.attr_type == AttributeType.CATEGORICAL:
            return self._categorical(attr_name, anchor, target, rng, side)
        return self._text(attr_name, anchor, target, rng)

    def synthesize_entity(
        self,
        anchor: Entity,
        similarity_vector: np.ndarray,
        entity_id: str,
        rng: np.random.Generator,
        side: str = "a",
    ) -> Entity:
        """The S2-3 step: build ``e'`` (destined for table ``side``) from
        ``e`` and ``x``."""
        if side not in self.SIDES:
            raise ValueError(f"side must be one of {self.SIDES}, got {side!r}")
        similarity_vector = np.asarray(similarity_vector, dtype=np.float64)
        if similarity_vector.shape != (len(self.schema),):
            raise ValueError(
                f"similarity vector of shape {similarity_vector.shape} does not "
                f"match the {len(self.schema)}-column schema"
            )
        values = [
            self.synthesize_value(attr.name, anchor[attr.name], target, rng, side)
            for attr, target in zip(self.schema, similarity_vector)
        ]
        return Entity(entity_id, self.schema, values)

    def achieved_vector(self, anchor: Entity, candidate: Entity) -> np.ndarray:
        """The actual similarity vector of the synthesized pair."""
        return self.similarity_model.vector(anchor, candidate)
