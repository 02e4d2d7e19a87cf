"""Pair feature extraction for matchers.

Magellan-style featurization: for each aligned attribute, the configured
similarity (3-gram Jaccard / normalized numeric difference) plus an
exact-equality flag and a both-missing flag.  The similarity block is exactly
the similarity vector of Section II-B, so matchers literally learn the M- vs
N-distribution — which is why matching the O-distribution preserves matcher
behaviour.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.schema.dataset import ERDataset, Pair
from repro.schema.entity import Entity
from repro.similarity.vector import SimilarityModel


class PairFeaturizer:
    """Turn entity pairs into matcher feature rows."""

    def __init__(self, similarity_model: SimilarityModel, *, extended: bool = True):
        self.similarity_model = similarity_model
        self.extended = extended

    @property
    def n_features(self) -> int:
        width = len(self.similarity_model.schema)
        return width * 3 if self.extended else width

    def features(self, entity_a: Entity, entity_b: Entity) -> np.ndarray:
        """One feature row for a pair."""
        sims = self.similarity_model.vector(entity_a, entity_b)
        if not self.extended:
            return sims
        exact = np.array(
            [
                1.0 if entity_a.values[i] == entity_b.values[i] else 0.0
                for i in range(len(sims))
            ]
        )
        missing = np.array(
            [
                1.0
                if entity_a.values[i] is None or entity_b.values[i] is None
                else 0.0
                for i in range(len(sims))
            ]
        )
        return np.concatenate([sims, exact, missing])

    def features_many(
        self, pairs: Iterable[tuple[Entity, Entity]]
    ) -> np.ndarray:
        rows = [self.features(a, b) for a, b in pairs]
        if not rows:
            return np.empty((0, self.n_features))
        return np.vstack(rows)

    # ------------------------------------------------------------------
    # Dataset-level helpers
    # ------------------------------------------------------------------
    def dataset_features(
        self, dataset: ERDataset, labeled_pairs: Sequence[tuple[Pair, bool]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(features, labels) for id pairs resolved against ``dataset``."""
        entity_pairs = [dataset.resolve(pair) for pair, _ in labeled_pairs]
        labels = np.array([flag for _, flag in labeled_pairs], dtype=np.float64)
        return self.features_many(entity_pairs), labels
