"""Empirical privacy attack batteries (membership inference, DCR/NNDR,
singling-out).

The accountant (:mod:`repro.privacy.accountant`) *claims* an ``(epsilon,
delta)`` guarantee; this module measures what an attacker can actually
recover, following the standard batteries of "Privacy Measurement in
Tabular Synthetic Data" and the SafeSynthDP ε-sweep methodology
(PAPERS.md):

- :func:`run_membership_inference` — a loss-based membership inference
  attack (MIA) against the DP transformer text backend.  The background
  corpus is split into target-train / target-holdout / shadow-train /
  shadow-holdout quarters; a target and a shadow model are trained on
  their train quarters, per-string reconstruction losses are scored
  through the trained bucket models, the decision threshold is calibrated
  on the *shadow* model's scores (the attacker never needs target
  membership labels), and the target's member-vs-holdout separation is
  reported as ROC AUC, TPR at a low FPR operating point, and the
  advantage at the shadow threshold.  Under DP-SGD the per-example
  influence of any one string is bounded, so the measured AUC should
  shrink toward 0.5 as ε decreases — the empirical check that the
  accountant's ε suppresses attack advantage.
- :func:`nearest_record_battery` — distance-to-closest-record (DCR) and
  nearest-neighbor-distance-ratio (NNDR) of every synthesized entity
  against the source table, plus a similarity-threshold singling-out
  attack (a synthetic record "singles out" a real record when it is
  ``threshold``-similar to exactly one).  Scored through the PR 1
  similarity kernels (:func:`repro.similarity.kernels.iter_cross_blocks`)
  so the cross product streams in bounded-memory tiles, bit-identical to
  a one-pair-at-a-time loop over :meth:`SimilarityModel.vector`.

Every attack is seeded: randomness derives from
``default_rng([seed, _MIA_STREAM, k])`` substreams (the discipline of
:mod:`repro.core.sharding`), so an audit rerun with the same seed
reproduces the same numbers bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.nn.losses import cross_entropy_per_example
from repro.runtime.counters import Counters
from repro.schema.entity import Entity
from repro.similarity import kernels
from repro.similarity.vector import SimilarityModel

# Substream salt for membership-inference RNGs; disjoint from the shard
# stream (0x5E4D) and the other derived streams (GAN seed+1, background
# seed+17, JSD seed+23) for any (seed, index) pair.
_MIA_STREAM = 0x31A7

# Distances below this count as an exact copy of a real record.
_EXACT_DISTANCE = 1e-9


# ----------------------------------------------------------------------
# Audit counters (process-local; surfaced through /stats like the
# integrity layer's quarantine counts)
# ----------------------------------------------------------------------
_COUNTERS = Counters(
    "audits_run", "mia_attacks_run", "dcr_pairs_scored", "privacy_reports_served"
)
count_attack_event = _COUNTERS.count
attack_counters = _COUNTERS.snapshot


# ----------------------------------------------------------------------
# ROC utilities (plain numpy; scores where HIGHER means "more member")
# ----------------------------------------------------------------------
def roc_auc(member_scores: np.ndarray, nonmember_scores: np.ndarray) -> float:
    """Mann-Whitney AUC with tie correction.

    The probability that a random member outscores a random non-member
    (ties count half).  0.5 is a blind attacker; 1.0 a perfect one.
    """
    members = np.asarray(member_scores, dtype=np.float64)
    others = np.asarray(nonmember_scores, dtype=np.float64)
    if members.size == 0 or others.size == 0:
        raise ValueError("both score collections must be non-empty")
    greater = (members[:, None] > others[None, :]).sum()
    equal = (members[:, None] == others[None, :]).sum()
    return float((greater + 0.5 * equal) / (members.size * others.size))


def tpr_at_fpr(
    member_scores: np.ndarray,
    nonmember_scores: np.ndarray,
    max_fpr: float = 0.1,
) -> float:
    """Best achievable TPR at any threshold whose FPR is ``<= max_fpr``.

    The low-FPR regime is where membership inference does real damage
    (confident identification of a few members beats noisy guesses about
    many) — reporting TPR@low-FPR follows Carlini et al.'s critique of
    average-case MIA metrics.
    """
    members = np.asarray(member_scores, dtype=np.float64)
    others = np.asarray(nonmember_scores, dtype=np.float64)
    if members.size == 0 or others.size == 0:
        raise ValueError("both score collections must be non-empty")
    best = 0.0
    for threshold in np.unique(np.concatenate([members, others])):
        fpr = float((others >= threshold).mean())
        if fpr <= max_fpr:
            best = max(best, float((members >= threshold).mean()))
    return best


def _best_threshold(
    member_scores: np.ndarray, nonmember_scores: np.ndarray
) -> float:
    """Threshold maximizing balanced accuracy on calibration scores."""
    members = np.asarray(member_scores, dtype=np.float64)
    others = np.asarray(nonmember_scores, dtype=np.float64)
    best_threshold, best_accuracy = 0.0, -1.0
    for threshold in np.unique(np.concatenate([members, others])):
        accuracy = 0.5 * (
            float((members >= threshold).mean())
            + float((others < threshold).mean())
        )
        if accuracy > best_accuracy:
            best_threshold, best_accuracy = float(threshold), accuracy
    return best_threshold


# ----------------------------------------------------------------------
# Membership inference against the transformer text backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MIAResult:
    """Outcome of one membership-inference battery."""

    auc: float
    tpr_at_low_fpr: float
    low_fpr: float
    advantage: float  # TPR - FPR at the shadow-calibrated threshold
    accuracy: float  # balanced accuracy at the shadow threshold
    shadow_threshold: float
    n_members: int
    n_nonmembers: int
    epsilon: float | None  # measured ε of the *target* model (None: non-DP)

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "tpr_at_low_fpr": self.tpr_at_low_fpr,
            "low_fpr": self.low_fpr,
            "advantage": self.advantage,
            "accuracy": self.accuracy,
            "shadow_threshold": self.shadow_threshold,
            "n_members": self.n_members,
            "n_nonmembers": self.n_nonmembers,
            "epsilon": self.epsilon,
        }


def membership_scores(backend, strings: Sequence[str]) -> np.ndarray:
    """Per-string reconstruction loss through a fitted transformer backend.

    Each string is encoded as the identity pair ``(s, s)`` and scored with
    per-example token cross entropy under every trained bucket model; the
    minimum across buckets is the string's loss.  Members of the training
    corpus (strings the bucket pairs were built from) systematically score
    lower unless DP noise drowned their individual influence — the signal
    the MIA thresholds.

    Models are flipped to eval mode for scoring (dropout off), so scores
    are deterministic functions of the trained weights.
    """
    records = [m for m in backend._models if m is not None and m.trained]
    if not records:
        raise ValueError("backend has no trained bucket models")
    encoded = [backend._encode_pair((text, text)) for text in strings]
    losses = np.full((len(records), len(encoded)), np.inf, dtype=np.float64)
    for row, record in enumerate(records):
        model = record.model
        model.eval()
        try:
            sources = backend._vocab.pad_batch([e[0] for e in encoded])
            targets_in = backend._vocab.pad_batch([e[1] for e in encoded])
            targets_out = backend._vocab.pad_batch([e[2] for e in encoded])
            logits = model(sources, targets_in)
            per_example = cross_entropy_per_example(
                logits, targets_out, ignore_index=0
            )
            losses[row] = np.asarray(per_example.data, dtype=np.float64)
        finally:
            model.train()
    return losses.min(axis=0)


def run_membership_inference(
    corpus: Sequence[str],
    transformer_config,
    *,
    seed: int,
    low_fpr: float = 0.1,
) -> MIAResult:
    """Loss-based MIA with a shadow-calibrated threshold.

    ``corpus`` is the background string pool; ``transformer_config`` a
    :class:`~repro.textgen.transformer_backend.TransformerTextSynthesizerConfig`
    (its ``dp`` field decides whether the target trains privately).  The
    corpus is permuted with the ``[seed, _MIA_STREAM, 0]`` substream and
    split into four quarters; target and shadow models train on disjoint
    quarters with their own substreams, so the whole attack is a pure
    function of ``(corpus, config, seed)``.
    """
    from repro.textgen.transformer_backend import TransformerTextSynthesizer

    cleaned = list(dict.fromkeys(t for t in corpus if t and t.strip()))
    if len(cleaned) < 8:
        raise ValueError(
            f"membership inference needs >= 8 distinct strings, got {len(cleaned)}"
        )
    rng = np.random.default_rng([seed, _MIA_STREAM, 0])
    order = rng.permutation(len(cleaned))
    quarter = len(cleaned) // 4
    splits = [
        [cleaned[i] for i in order[k * quarter : (k + 1) * quarter]]
        for k in range(4)
    ]
    target_train, target_holdout, shadow_train, shadow_holdout = splits

    target = TransformerTextSynthesizer(transformer_config)
    target.fit(target_train, np.random.default_rng([seed, _MIA_STREAM, 1]))
    shadow = TransformerTextSynthesizer(transformer_config)
    shadow.fit(shadow_train, np.random.default_rng([seed, _MIA_STREAM, 2]))

    # Scores: negative loss, so higher = more member-like.
    shadow_members = -membership_scores(shadow, shadow_train)
    shadow_others = -membership_scores(shadow, shadow_holdout)
    threshold = _best_threshold(shadow_members, shadow_others)

    members = -membership_scores(target, target_train)
    others = -membership_scores(target, target_holdout)
    tpr = float((members >= threshold).mean())
    fpr = float((others >= threshold).mean())
    count_attack_event("mia_attacks_run")
    return MIAResult(
        auc=roc_auc(members, others),
        tpr_at_low_fpr=tpr_at_fpr(members, others, low_fpr),
        low_fpr=float(low_fpr),
        advantage=tpr - fpr,
        accuracy=0.5 * (tpr + (1.0 - fpr)),
        shadow_threshold=threshold,
        n_members=int(members.size),
        n_nonmembers=int(others.size),
        epsilon=target.epsilon(),
    )


# ----------------------------------------------------------------------
# DCR / NNDR / singling-out over E_syn vs the source table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NearestRecordAudit:
    """Per-synthetic-record nearest-real-record statistics, summarized.

    Distances are ``1 - entity similarity`` where entity similarity is the
    mean attribute similarity (Exp-4's entity-level measure), so these
    numbers are directly comparable to
    :func:`repro.privacy.metrics.distance_to_closest_record`.
    """

    n_synthetic: int
    n_real: int
    pairs_scored: int
    dcr_mean: float
    dcr_min: float
    dcr_p05: float
    dcr_median: float
    nndr_median: float
    nndr_p05: float
    exact_copies: int
    singling_out_rate: float
    singling_out_count: int
    singling_threshold: float

    @classmethod
    def from_similarities(
        cls,
        top1: np.ndarray,
        top2: np.ndarray,
        n_real: int,
        singling_threshold: float,
    ) -> "NearestRecordAudit":
        """Summarize each synthetic record's top-2 real-record similarity."""
        d1 = 1.0 - top1
        d2 = 1.0 - top2
        with np.errstate(divide="ignore", invalid="ignore"):
            nndr = np.clip(d1 / np.maximum(d2, 1e-12), 0.0, 1.0)
        singled = (top1 >= singling_threshold) & (top2 < singling_threshold)
        return cls(
            n_synthetic=len(top1),
            n_real=n_real,
            pairs_scored=len(top1) * n_real,
            dcr_mean=float(np.mean(d1)),
            dcr_min=float(np.min(d1)),
            dcr_p05=float(np.quantile(d1, 0.05)),
            dcr_median=float(np.median(d1)),
            nndr_median=float(np.median(nndr)),
            nndr_p05=float(np.quantile(nndr, 0.05)),
            exact_copies=int(np.sum(d1 <= _EXACT_DISTANCE)),
            singling_out_rate=float(np.mean(singled)),
            singling_out_count=int(np.sum(singled)),
            singling_threshold=float(singling_threshold),
        )

    def to_dict(self) -> dict:
        return {
            "n_synthetic": self.n_synthetic,
            "n_real": self.n_real,
            "pairs_scored": self.pairs_scored,
            "dcr": {
                "mean": self.dcr_mean,
                "min": self.dcr_min,
                "p05": self.dcr_p05,
                "median": self.dcr_median,
            },
            "nndr": {"median": self.nndr_median, "p05": self.nndr_p05},
            "exact_copies": self.exact_copies,
            "singling_out": {
                "rate": self.singling_out_rate,
                "count": self.singling_out_count,
                "threshold": self.singling_threshold,
            },
        }


def _top2_similarities_kernel(
    model: SimilarityModel,
    synthetic: Sequence[Entity],
    real: Sequence[Entity],
    max_cells: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(top1, top2) entity similarity of each synthetic row vs the real table.

    Streams the cross product through :func:`kernels.iter_cross_blocks`
    row tiles, so peak memory is ``O(max_cells * l)`` regardless of table
    sizes.  Entity similarity is the column mean of the kernel tensor —
    the same quantity :meth:`SimilarityModel.vector` averages, in the same
    order, so a one-pair-at-a-time loop agrees bit-for-bit.
    """
    profile_syn = model.profile_entities(list(synthetic))
    profile_real = model.profile_entities(list(real))
    top1 = np.full(profile_syn.n, -np.inf)
    top2 = np.full(profile_syn.n, -np.inf)
    for start, stop, tensor in kernels.iter_cross_blocks(
        profile_syn, profile_real, max_cells=max_cells
    ):
        sims = tensor.mean(axis=2)  # (rows, n_real)
        if profile_real.n == 1:
            top1[start:stop] = sims[:, 0]
            continue
        part = np.partition(sims, profile_real.n - 2, axis=1)
        top1[start:stop] = part[:, -1]
        top2[start:stop] = part[:, -2]
    return top1, top2


def nearest_record_battery(
    model: SimilarityModel,
    synthetic: Sequence[Entity],
    real: Sequence[Entity],
    *,
    singling_threshold: float = 0.9,
    max_cells: int = 250_000,
) -> NearestRecordAudit:
    """DCR + NNDR + singling-out in one pass over the cross product.

    - **DCR**: ``1 - top1`` per synthetic record; low values mean the
      record sits next to (or on) a real one.
    - **NNDR**: ``d1 / d2`` (nearest over second-nearest distance) in
      ``[0, 1]``; values near 0 mean the record is much closer to one
      real record than to any other — a re-identification pointer even
      when the absolute distance looks safe.
    - **Singling-out**: the record is ``threshold``-similar to exactly
      one real record (top1 >= t > top2), i.e. it isolates an individual.
    """
    synthetic = list(synthetic)
    real = list(real)
    if not synthetic or not real:
        raise ValueError("both entity collections must be non-empty")
    top1, top2 = _top2_similarities_kernel(model, synthetic, real, max_cells)
    count_attack_event("dcr_pairs_scored", len(synthetic) * len(real))
    return NearestRecordAudit.from_similarities(
        top1, top2, len(real), singling_threshold
    )
