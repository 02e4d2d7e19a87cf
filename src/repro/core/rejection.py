"""Synthesized-entity rejection (paper Section V).

Case 1 — **discriminator**: the GAN discriminator scores the candidate; a
score below ``beta`` rejects it as not resembling a real entity.

Case 2 — **distribution**: the candidate's new pairs ``Delta X_syn`` are
folded into the synthetic O-distribution incrementally (Eqs. 8-9); if that
drags O_syn away from O_real per Eq. 10 —
``JSD(O'_syn, O_real) > alpha * JSD(O_syn, O_real)`` — the candidate is
rejected and the statistics are discarded.  Both JSDs are estimated on the
same Monte-Carlo points, drawn once per commit from the committed O_syn;
the candidate's side is importance-weighted by ``O'_syn(x) / O_syn(x)``.

:class:`DistributionTracker` owns the synthetic M/N mixtures: it buffers
vectors until enough exist to fit initial GMMs, then switches to the
incremental update so no EM re-runs happen during synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SERDConfig
from repro.distributions.divergence import PairJsdEstimator
from repro.distributions.gmm import select_gmm_by_aic
from repro.distributions.incremental import IncrementalGMM
from repro.distributions.mixture import PairDistribution
from repro.gan.training import TabularGAN
from repro.schema.entity import Entity

# Monte-Carlo samples per Eq. 10 JSD estimate (and per final-drift
# estimate in :func:`repro.core.sharding.o_syn_drift`).
JSD_SAMPLES = 256
# Absolute tolerance added to the Eq. 10 threshold.  The JSD estimator is
# Monte-Carlo; without slack, a well-converged O_syn (tiny baseline JSD)
# rejects every candidate on estimator noise alone.
JSD_SLACK = 0.01
# AIC model-selection upper bound for the M/N GMMs: the real ones fitted
# in S1 and the synthetic ones the tracker bootstraps.
MAX_GMM_COMPONENTS = 3


class DistributionTracker:
    """Incrementally maintained O_syn (Section V, "Compute/Update O_syn")."""

    def __init__(
        self,
        o_real: PairDistribution,
        rng: np.random.Generator,
    ):
        self.o_real = o_real
        self._rng = rng
        self._buffer_pos: list[np.ndarray] = []
        self._buffer_neg: list[np.ndarray] = []
        self._pos: IncrementalGMM | None = None
        self._neg: IncrementalGMM | None = None
        self.n_pos = 0
        self.n_neg = 0
        # The last candidate's (vectors, M update, N update, |pos|, |neg|):
        # committing that same array adopts them instead of recomputing.
        self._last_candidate: tuple | None = None

    # ------------------------------------------------------------------
    # Label assignment (Eq. 7): posterior under O_real
    # ------------------------------------------------------------------
    def split_by_label(
        self, vectors: np.ndarray, is_match: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partition vectors into (matching, non-matching) via ``P_m >= P_n``.

        ``is_match`` passes labels already computed under ``o_real``.
        """
        vectors = np.atleast_2d(vectors)
        if vectors.size == 0:
            empty = np.empty((0, self.o_real.dim))
            return empty, empty
        if is_match is None:
            is_match = self.o_real.classify(vectors)
        return vectors[is_match], vectors[~is_match]

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def total_pairs(self) -> int:
        return self.n_pos + self.n_neg

    @property
    def bootstrapped(self) -> bool:
        return self._pos is not None and self._neg is not None

    def _minimum_side(self) -> int:
        # A GMM needs a handful of points per side before EM is meaningful.
        return max(4, self.o_real.dim)

    def _try_bootstrap(self) -> None:
        minimum = self._minimum_side()
        if len(self._buffer_pos) < minimum or len(self._buffer_neg) < minimum:
            return
        pos = np.vstack(self._buffer_pos)
        neg = np.vstack(self._buffer_neg)
        components = max(1, min(MAX_GMM_COMPONENTS, len(pos) // 4))
        pos_gmm = select_gmm_by_aic(pos, self._rng, max_components=components)
        components = max(1, min(MAX_GMM_COMPONENTS, len(neg) // 4))
        neg_gmm = select_gmm_by_aic(neg, self._rng, max_components=components)
        self._pos = IncrementalGMM.from_fit(pos_gmm, pos)
        self._neg = IncrementalGMM.from_fit(neg_gmm, neg)
        self._buffer_pos.clear()
        self._buffer_neg.clear()

    def add_vectors(self, vectors: np.ndarray) -> None:
        """Commit new pair vectors into O_syn.

        Handed the array the last :meth:`candidate` call scored, this adopts
        that candidate's labels and updated mixtures as they are.
        """
        last, self._last_candidate = self._last_candidate, None
        if last is not None and last[0] is vectors:
            _, self._pos, self._neg, n_pos, n_neg = last
            self.n_pos += n_pos
            self.n_neg += n_neg
            return
        pos, neg = self.split_by_label(vectors)
        self.n_pos += len(pos)
        self.n_neg += len(neg)
        if self.bootstrapped:
            if len(pos):
                self._pos = self._pos.update(pos)
            if len(neg):
                self._neg = self._neg.update(neg)
        else:
            self._buffer_pos.extend(pos)
            self._buffer_neg.extend(neg)
            self._try_bootstrap()

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def _mixture(
        self, pos: IncrementalGMM, neg: IncrementalGMM, n_pos: int, n_neg: int
    ) -> PairDistribution:
        pi = float(np.clip(n_pos / max(1, n_pos + n_neg), 1e-6, 1 - 1e-6))
        return PairDistribution(pi, pos.mixture, neg.mixture)

    def current(self) -> PairDistribution | None:
        """O_syn as currently committed; None before bootstrap."""
        if not self.bootstrapped:
            return None
        return self._mixture(self._pos, self._neg, self.n_pos, self.n_neg)

    def candidate(
        self, delta_vectors: np.ndarray, is_match: np.ndarray | None = None
    ) -> PairDistribution | None:
        """O'_syn if ``delta_vectors`` were added — nothing is committed.

        ``is_match`` passes labels already computed under ``o_real``.
        """
        if not self.bootstrapped:
            return None
        pos, neg = self.split_by_label(delta_vectors, is_match)
        cand_pos = self._pos.update(pos) if len(pos) else self._pos
        cand_neg = self._neg.update(neg) if len(neg) else self._neg
        self._last_candidate = (
            delta_vectors, cand_pos, cand_neg, len(pos), len(neg)
        )
        return self._mixture(
            cand_pos, cand_neg, self.n_pos + len(pos), self.n_neg + len(neg)
        )

    # ------------------------------------------------------------------
    # Persistence (S2 progress checkpoints)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable dump of buffers, counts and the live mixtures."""
        return {
            "buffer_pos": [v.tolist() for v in self._buffer_pos],
            "buffer_neg": [v.tolist() for v in self._buffer_neg],
            "pos": self._pos.to_dict() if self._pos is not None else None,
            "neg": self._neg.to_dict() if self._neg is not None else None,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
        }

    def restore(self, payload: dict) -> "DistributionTracker":
        """Rehydrate state saved with :meth:`to_dict` (in place)."""
        self._last_candidate = None
        self._buffer_pos = [
            np.asarray(v, dtype=np.float64) for v in payload["buffer_pos"]
        ]
        self._buffer_neg = [
            np.asarray(v, dtype=np.float64) for v in payload["buffer_neg"]
        ]
        self._pos = (
            IncrementalGMM.from_dict(payload["pos"])
            if payload["pos"] is not None
            else None
        )
        self._neg = (
            IncrementalGMM.from_dict(payload["neg"])
            if payload["neg"] is not None
            else None
        )
        self.n_pos = int(payload["n_pos"])
        self.n_neg = int(payload["n_neg"])
        return self


@dataclass
class RejectionDecision:
    """Why a candidate was accepted or rejected (diagnostics)."""

    accepted: bool
    reason: str  # "accepted" | "discriminator" | "distribution"
    discriminator_score: float | None = None
    jsd_current: float | None = None
    jsd_candidate: float | None = None


class RejectionPolicy:
    """Combines rejection Cases 1 and 2 behind one ``evaluate`` call.

    Each candidate's ``Delta X_syn`` is scored under O_real once; that one
    result gives the plausibility check, the unintended-match labels and
    the M/N split of ``O'_syn``.  Eq. 10 weighs each candidate on points
    drawn from the committed O_syn once per commit
    (:class:`~repro.distributions.divergence.PairJsdEstimator`), and
    :meth:`commit` adopts the evaluated candidate's labels and updated
    mixtures instead of recomputing them.
    """

    def __init__(
        self,
        config: SERDConfig,
        tracker: DistributionTracker,
        gan: TabularGAN | None,
        jsd_seed: int = 0,
        plausibility_floor: float | None = None,
    ):
        self.config = config
        self.tracker = tracker
        self.gan = gan
        self.jsd_seed = jsd_seed
        self.plausibility_floor = plausibility_floor
        self.stats = {
            "accepted": 0,
            "discriminator": 0,
            "distribution": 0,
            # Slots whose retry budget ran out and accepted the least-bad
            # candidate anyway — the rejection-livelock telemetry.  Always
            # present so downstream consumers can rely on the key.
            "fallback_accepted": 0,
        }
        self._cached_jsd_current: float | None = None
        self._jsd: PairJsdEstimator | None = None

    def _jsd_baseline(self) -> float:
        """``JSD(O_syn, O_real)`` of the committed O_syn, once per commit.

        Rebasing the :class:`PairJsdEstimator` on the committed O_syn draws
        the p-side points every candidate of the coming slot is weighed on.
        The O_real side is sampled once per policy, when the estimator is
        built here.
        """
        if self._cached_jsd_current is None:
            if self._jsd is None:
                self._jsd = PairJsdEstimator(
                    self.tracker.o_real,
                    seed=self.jsd_seed,
                    n_samples=JSD_SAMPLES,
                )
            current = self.tracker.current()
            self._jsd.rebase(current)
            self._cached_jsd_current = self._jsd(current)
        return self._cached_jsd_current

    def record_fallback(self) -> None:
        """Count one slot that exhausted its retries (livelock telemetry)."""
        self.stats["fallback_accepted"] += 1

    @property
    def fallback_rate(self) -> float:
        """Fraction of accepted slots that were retry-exhausted fallbacks."""
        slots = self.stats["accepted"] + self.stats["fallback_accepted"]
        if slots == 0:
            return 0.0
        return self.stats["fallback_accepted"] / slots

    def evaluate(
        self,
        candidate: Entity,
        delta_vectors: np.ndarray,
        expected_match: bool = False,
        target_vector: np.ndarray | None = None,
    ) -> RejectionDecision:
        """Accept/reject one synthesized entity.

        ``delta_vectors`` are the similarity vectors between the candidate
        and (a sample of) the anchor's table — the paper's ``Delta X_syn``;
        row 0 is the sampled pair itself.  ``expected_match`` says whether
        that pair was sampled from the M-distribution; ``target_vector`` is
        the sampled similarity vector the synthesis aimed for.
        """
        decision = self._evaluate(
            candidate, delta_vectors, expected_match, target_vector
        )
        self.stats[decision.reason if not decision.accepted else "accepted"] += 1
        return decision

    def _evaluate(
        self,
        candidate: Entity,
        delta_vectors: np.ndarray,
        expected_match: bool,
        target_vector: np.ndarray | None,
    ) -> RejectionDecision:
        if not self.config.reject_entities:
            return RejectionDecision(True, "accepted")
        score = None
        if self.gan is not None and self.config.beta > 0.0:
            score = self.gan.discriminator_score(candidate)
            if score < self.config.beta:
                return RejectionDecision(False, "discriminator", discriminator_score=score)
        is_match = None
        if np.isfinite(self.config.alpha) and len(np.atleast_2d(delta_vectors)):
            # One scoring under O_real gives plausibility, the labels of the
            # unintended-match check and the M/N split of O'_syn.
            plausibility, is_match = self.tracker.o_real.score(delta_vectors)
            worst = float(plausibility.min())
            if self.plausibility_floor is not None and worst < self.plausibility_floor:
                # Per-vector goodness of fit: a pair that is implausible
                # under both the M- and N-distributions (a missed synthesis
                # target) would corrupt O_syn and its labels, so reject
                # immediately.  Rank key: any JSD-evaluated candidate beats
                # a plausibility-rejected one; among the latter, less
                # implausible is better.
                return RejectionDecision(
                    False, "distribution",
                    discriminator_score=score,
                    jsd_candidate=1e3 - worst,
                )
            # Pairs the posterior would label matching, beyond the sampled
            # pair itself, inflate the synthetic match prior — the clearest
            # way an entity "destroys the distribution" (Section V).
            allowed = 1 if expected_match else 0
            unintended = int(is_match.sum()) > allowed
            if expected_match and target_vector is not None and not unintended:
                # A match whose *target* vector is decisively match-like but
                # whose achieved vector is not means synthesis missed badly.
                target_is_matchlike = bool(
                    self.tracker.o_real.classify(np.atleast_2d(target_vector))[0]
                )
                unintended = target_is_matchlike and not bool(is_match[0])
            if unintended:
                return RejectionDecision(
                    False, "distribution",
                    discriminator_score=score,
                    jsd_candidate=500.0 + float(is_match.sum()),
                )
        if (
            np.isfinite(self.config.alpha)
            and self.tracker.bootstrapped
            and self.tracker.total_pairs >= self.config.min_pairs_for_rejection
        ):
            updated = self.tracker.candidate(delta_vectors, is_match)
            jsd_current = self._jsd_baseline()
            jsd_candidate = self._jsd(updated)
            # Eq. 10 plus an absolute Monte-Carlo slack so a near-zero
            # baseline JSD does not reject every candidate on noise.
            threshold = self.config.alpha * jsd_current + JSD_SLACK
            if jsd_candidate > threshold:
                return RejectionDecision(
                    False, "distribution",
                    discriminator_score=score,
                    jsd_current=jsd_current, jsd_candidate=jsd_candidate,
                )
            return RejectionDecision(
                True, "accepted",
                discriminator_score=score,
                jsd_current=jsd_current, jsd_candidate=jsd_candidate,
            )
        return RejectionDecision(True, "accepted", discriminator_score=score)

    def commit(self, delta_vectors: np.ndarray) -> None:
        """Fold an accepted entity's vectors into O_syn.

        The tracker adopts the last evaluated candidate's labels and updated
        mixtures when it is the one committed; a fallback commits an earlier
        candidate, which is re-scored.
        """
        self.tracker.add_vectors(delta_vectors)
        self._cached_jsd_current = None
