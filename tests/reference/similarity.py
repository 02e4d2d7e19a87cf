"""One-pair-at-a-time similarity paths: the oracle for the kernel layer.

Production scores pairs through precomputed column profiles
(:mod:`repro.similarity.kernels`).  The functions here score every pair
with the scalar :meth:`SimilarityModel.vector` in the same visiting order,
so their results must equal production's bit for bit.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from repro.distributions.mixture import PairDistribution
from repro.privacy.attacks import NearestRecordAudit
from repro.schema.dataset import Pair
from repro.schema.entity import Entity, Relation
from repro.similarity.vector import SimilarityModel


def label_all_pairs(
    table_a: Relation,
    table_b: Relation,
    known_pairs: set[Pair],
    o_real: PairDistribution,
    similarity_model: SimilarityModel,
    *,
    batch_size: int = 4096,
    max_matches: int | None = None,
) -> tuple[list[Pair], int]:
    """:func:`repro.core.labeling.label_all_pairs`, one vector per pair."""
    candidates: list[tuple[float, Pair]] = []
    n_labeled = 0
    batch_pairs: list[Pair] = []
    batch_vectors: list[np.ndarray] = []

    def _flush() -> None:
        nonlocal n_labeled
        if not batch_pairs:
            return
        posterior = o_real.posterior_match(np.vstack(batch_vectors))
        for pair, p_match in zip(batch_pairs, posterior):
            if p_match >= 0.5:
                candidates.append((float(p_match), pair))
        n_labeled += len(batch_pairs)
        batch_pairs.clear()
        batch_vectors.clear()

    for entity_a, entity_b in itertools.product(table_a, table_b):
        pair = (entity_a.entity_id, entity_b.entity_id)
        if pair in known_pairs:
            continue
        batch_pairs.append(pair)
        batch_vectors.append(similarity_model.vector(entity_a, entity_b))
        if len(batch_pairs) >= batch_size:
            _flush()
    _flush()
    if max_matches is not None and len(candidates) > max_matches:
        candidates.sort(key=lambda item: item[0], reverse=True)
        candidates = candidates[:max_matches]
    return [pair for _, pair in candidates], n_labeled


def top2_similarities(
    model: SimilarityModel,
    synthetic: Sequence[Entity],
    real: Sequence[Entity],
) -> tuple[np.ndarray, np.ndarray]:
    """(top1, top2) mean-attribute similarity of each synthetic record."""
    top1 = np.full(len(synthetic), -np.inf)
    top2 = np.full(len(synthetic), -np.inf)
    for i, candidate in enumerate(synthetic):
        sims = np.array(
            [float(np.mean(model.vector(candidate, other))) for other in real]
        )
        if sims.size == 1:
            top1[i] = sims[0]
            continue
        part = np.partition(sims, sims.size - 2)
        top1[i] = part[-1]
        top2[i] = part[-2]
    return top1, top2


def nearest_record_battery(
    model: SimilarityModel,
    synthetic: Sequence[Entity],
    real: Sequence[Entity],
    *,
    singling_threshold: float = 0.9,
) -> NearestRecordAudit:
    """:func:`repro.privacy.attacks.nearest_record_battery`, scalar."""
    synthetic = list(synthetic)
    real = list(real)
    top1, top2 = top2_similarities(model, synthetic, real)
    return NearestRecordAudit.from_similarities(
        top1, top2, len(real), singling_threshold
    )

