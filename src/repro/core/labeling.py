"""S3 — label all remaining pairs by GMM posterior (paper Section IV-C).

After S2, only the sampled pairs carry labels.  Every other cross pair gets
its similarity vector computed and is labeled matching when
``P_m(x) >= P_n(x)`` under the real O-distribution.

The relations are profiled once (:mod:`repro.similarity.kernels`) and
scored as tiled all-pairs similarity tensors (dense path) or, with a
blocker, as batched index-pair gathers (blocked path).  Both visit pairs in
row-major / candidate order, the order of a one-pair-at-a-time loop, so
the selected matches — including stable-sort tie-breaks under
``max_matches`` — equal that loop's bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.mixture import PairDistribution
from repro.schema.dataset import Pair
from repro.schema.entity import Relation
from repro.similarity import kernels
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
    blocker=None,
) -> tuple[list[Pair], int]:
    """Posterior-label every cross pair not in ``known_pairs``.

    Returns ``(new_matches, n_labeled)`` — the pairs labeled matching plus
    the total number of newly labeled pairs (the rest are non-matching and
    stay implicit).  Vectors are scored in batches/tiles of roughly
    ``batch_size`` pairs to bound memory.

    ``max_matches`` caps the matches at the highest-posterior pairs.  The
    plain ``P_m >= P_n`` rule over-labels near the decision boundary (it
    mislabels a percent or two of *real* non-matching pairs as well); the
    cap keeps the synthetic match density at the real dataset's level while
    preferring the most decisive pairs.

    With a ``blocker`` (see :mod:`repro.similarity.candidates`), only
    blocking candidates are scored and every other pair is non-matching by
    construction — a faithful fast path, since pairs sharing no blocking key
    cannot reach a match-grade posterior.
    """
    if blocker is not None:
        candidates, n_labeled = _blocked_candidates(
            table_a, table_b, known_pairs, o_real, similarity_model,
            batch_size=batch_size, blocker=blocker,
        )
    else:
        candidates, n_labeled = _dense_candidates(
            table_a, table_b, known_pairs, o_real, similarity_model,
            batch_size=batch_size,
        )
    if max_matches is not None and len(candidates) > max_matches:
        candidates.sort(key=lambda item: item[0], reverse=True)
        candidates = candidates[:max_matches]
    new_matches = [pair for _, pair in candidates]
    return new_matches, n_labeled


def _dense_candidates(
    table_a: Relation,
    table_b: Relation,
    known_pairs: set[Pair],
    o_real: PairDistribution,
    similarity_model: SimilarityModel,
    *,
    batch_size: int,
) -> tuple[list[tuple[float, Pair]], int]:
    """Kernel path without a blocker: tiled all-pairs similarity tensors."""
    profile_a = similarity_model.profile(table_a)
    profile_b = similarity_model.profile(table_b)
    ids_a = [entity.entity_id for entity in table_a]
    ids_b = [entity.entity_id for entity in table_b]
    n_b = len(ids_b)
    candidates: list[tuple[float, Pair]] = []
    if n_b == 0 or not ids_a:
        return candidates, 0
    # Tiles of ~64k pairs amortize the sparse matmul per tile best (measured);
    # the similarity tensor then peaks around 64k * l * 8 bytes — a few MB.
    for start, stop, sims in kernels.iter_cross_blocks(
        profile_a, profile_b, max_cells=max(batch_size, 65536)
    ):
        posterior = o_real.posterior_match(sims.reshape(-1, sims.shape[-1]))
        for flat_index in np.flatnonzero(posterior >= 0.5):
            row, col = divmod(int(flat_index), n_b)
            pair = (ids_a[start + row], ids_b[col])
            if pair in known_pairs:
                continue
            candidates.append((float(posterior[flat_index]), pair))
    n_known = sum(
        1 for a_id, b_id in known_pairs if a_id in table_a and b_id in table_b
    )
    n_labeled = len(ids_a) * n_b - n_known
    return candidates, n_labeled


def _blocked_candidates(
    table_a: Relation,
    table_b: Relation,
    known_pairs: set[Pair],
    o_real: PairDistribution,
    similarity_model: SimilarityModel,
    *,
    batch_size: int,
    blocker,
) -> tuple[list[tuple[float, Pair]], int]:
    """Kernel path with a blocker: batched index-pair gathers."""
    profile_a = similarity_model.profile(table_a)
    profile_b = similarity_model.profile(table_b)
    pairs = [
        (entity_a.entity_id, entity_b.entity_id)
        for entity_a, entity_b in blocker.candidate_pairs(table_a, table_b)
    ]
    pairs = [pair for pair in pairs if pair not in known_pairs]
    candidates: list[tuple[float, Pair]] = []
    for start in range(0, len(pairs), batch_size):
        batch = pairs[start : start + batch_size]
        idx_a = np.fromiter(
            (profile_a.row_of[a] for a, _ in batch), dtype=np.int64, count=len(batch)
        )
        idx_b = np.fromiter(
            (profile_b.row_of[b] for _, b in batch), dtype=np.int64, count=len(batch)
        )
        vectors = kernels.pairs(profile_a, profile_b, idx_a, idx_b)
        posterior = o_real.posterior_match(vectors)
        for pair, p_match in zip(batch, posterior):
            if p_match >= 0.5:
                candidates.append((float(p_match), pair))
    return candidates, len(pairs)

