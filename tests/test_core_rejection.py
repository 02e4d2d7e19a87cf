"""Tests for the rejection machinery (DistributionTracker, RejectionPolicy)."""

import numpy as np
import pytest

from repro.core.config import SERDConfig
from repro.core.rejection import JSD_SAMPLES, DistributionTracker, RejectionPolicy
from repro.distributions import PairDistribution
from repro.distributions.divergence import pair_distribution_jsd


@pytest.fixture
def o_ref(rng):
    x_match = rng.normal([0.9, 0.85], 0.05, size=(120, 2)).clip(0, 1)
    x_non = rng.normal([0.1, 0.15], 0.07, size=(360, 2)).clip(0, 1)
    return PairDistribution.fit(x_match, x_non, rng, max_components=2)


@pytest.fixture
def config():
    return SERDConfig(seed=0, min_pairs_for_rejection=20)


def _good_vectors(rng, n_match=8, n_non=40):
    match = rng.normal([0.9, 0.85], 0.05, size=(n_match, 2)).clip(0, 1)
    non = rng.normal([0.1, 0.15], 0.07, size=(n_non, 2)).clip(0, 1)
    return np.vstack([match, non])


class TestDistributionTracker:
    def test_bootstrap_after_enough_vectors(self, o_ref, rng):
        tracker = DistributionTracker(o_ref, rng)
        assert not tracker.bootstrapped
        assert tracker.current() is None
        tracker.add_vectors(_good_vectors(rng))
        assert tracker.bootstrapped
        assert tracker.current() is not None

    def test_split_by_label(self, o_ref, rng):
        tracker = DistributionTracker(o_ref, rng)
        vectors = np.array([[0.9, 0.85], [0.1, 0.1]])
        pos, neg = tracker.split_by_label(vectors)
        assert len(pos) == 1 and len(neg) == 1
        np.testing.assert_allclose(pos[0], [0.9, 0.85])

    def test_candidate_does_not_commit(self, o_ref, rng):
        tracker = DistributionTracker(o_ref, rng)
        tracker.add_vectors(_good_vectors(rng))
        pairs_before = tracker.total_pairs
        candidate = tracker.candidate(_good_vectors(rng, 2, 4))
        assert candidate is not None
        assert tracker.total_pairs == pairs_before

    def test_counts_accumulate(self, o_ref, rng):
        tracker = DistributionTracker(o_ref, rng)
        tracker.add_vectors(_good_vectors(rng, 5, 20))
        tracker.add_vectors(_good_vectors(rng, 3, 12))
        assert tracker.total_pairs == 40

    def test_empty_split(self, o_ref, rng):
        tracker = DistributionTracker(o_ref, rng)
        pos, neg = tracker.split_by_label(np.empty((0, 2)))
        assert pos.shape == (0, 2) and neg.shape == (0, 2)


class TestRejectionPolicy:
    def test_disabled_rejection_accepts_everything(self, o_ref, config, rng):
        config = SERDConfig(seed=0, reject_entities=False)
        tracker = DistributionTracker(o_ref, rng)
        policy = RejectionPolicy(config, tracker, gan=None)
        decision = policy.evaluate(None, np.array([[0.5, 0.5]]))
        assert decision.accepted
        assert policy.stats["accepted"] == 1

    def test_plausibility_floor_rejects_gap_vectors(self, o_ref, config, rng):
        tracker = DistributionTracker(o_ref, rng)
        floor = float(
            np.quantile(o_ref.plausibility(_good_vectors(rng, 50, 150)), 0.02) - 2.0
        )
        policy = RejectionPolicy(config, tracker, gan=None, plausibility_floor=floor)
        good = policy.evaluate(
            None, _good_vectors(rng, 1, 9), expected_match=True,
            target_vector=np.array([0.9, 0.85]),
        )
        assert good.accepted
        bad = policy.evaluate(None, np.array([[0.5, 0.5]]))
        assert not bad.accepted
        assert bad.reason == "distribution"

    def test_unintended_match_rejected(self, o_ref, config, rng):
        tracker = DistributionTracker(o_ref, rng)
        policy = RejectionPolicy(config, tracker, gan=None)
        # Two match-like vectors but only one match expected.
        delta = np.array([[0.9, 0.85], [0.9, 0.86], [0.1, 0.1]])
        decision = policy.evaluate(None, delta, expected_match=True)
        assert not decision.accepted

    def test_intended_match_accepted(self, o_ref, config, rng):
        tracker = DistributionTracker(o_ref, rng)
        policy = RejectionPolicy(config, tracker, gan=None)
        delta = np.array([[0.9, 0.85], [0.1, 0.1], [0.12, 0.18]])
        decision = policy.evaluate(
            None, delta, expected_match=True,
            target_vector=np.array([0.9, 0.85]),
        )
        assert decision.accepted

    def test_missed_match_target_rejected(self, o_ref, config, rng):
        tracker = DistributionTracker(o_ref, rng)
        policy = RejectionPolicy(config, tracker, gan=None)
        # Target was decisively match-like, achieved vector is not.
        delta = np.array([[0.15, 0.2], [0.1, 0.1]])
        decision = policy.evaluate(
            None, delta, expected_match=True,
            target_vector=np.array([0.9, 0.85]),
        )
        assert not decision.accepted

    def test_alpha_infinite_disables_jsd_check(self, o_ref, rng):
        config = SERDConfig(seed=0, alpha=float("inf"))
        tracker = DistributionTracker(o_ref, rng)
        tracker.add_vectors(_good_vectors(rng))
        policy = RejectionPolicy(config, tracker, gan=None)
        decision = policy.evaluate(None, np.array([[0.12, 0.12]]))
        assert decision.accepted

    def test_commit_updates_tracker_and_cache(self, o_ref, config, rng):
        tracker = DistributionTracker(o_ref, rng)
        tracker.add_vectors(_good_vectors(rng))
        policy = RejectionPolicy(config, tracker, gan=None)
        policy.evaluate(
            None, _good_vectors(rng, 1, 9), expected_match=True,
            target_vector=np.array([0.9, 0.85]),
        )
        assert policy._cached_jsd_current is not None
        policy.commit(_good_vectors(rng, 1, 9))
        assert policy._cached_jsd_current is None
        assert tracker.total_pairs > 48

    def _bootstrapped(self, o_ref):
        tracker = DistributionTracker(o_ref, np.random.default_rng(1))
        tracker.add_vectors(_good_vectors(np.random.default_rng(2)))
        return tracker

    def test_commit_adopts_the_evaluated_candidate(self, o_ref, config, rng):
        tracker = self._bootstrapped(o_ref)
        fresh = self._bootstrapped(o_ref)
        assert tracker.to_dict() == fresh.to_dict()
        policy = RejectionPolicy(config, tracker, gan=None)
        delta = _good_vectors(rng, 1, 9)
        decision = policy.evaluate(
            None, delta, expected_match=True, target_vector=np.array([0.9, 0.85])
        )
        assert decision.jsd_candidate is not None  # Eq. 10 was reached
        adopted = tracker._last_candidate[1]
        policy.commit(delta)
        assert tracker._pos is adopted
        fresh.add_vectors(delta)
        assert tracker.to_dict() == fresh.to_dict()

    def test_fallback_commit_recomputes(self, o_ref, config, rng):
        tracker = self._bootstrapped(o_ref)
        fresh = self._bootstrapped(o_ref)
        policy = RejectionPolicy(config, tracker, gan=None)
        first, second = _good_vectors(rng, 1, 9), _good_vectors(rng, 1, 9)
        for delta in (first, second):
            policy.evaluate(
                None, delta, expected_match=True,
                target_vector=np.array([0.9, 0.85]),
            )
        # The slot falls back to its first candidate: nothing of the
        # second one's evaluation may leak into O_syn.
        policy.commit(first)
        fresh.add_vectors(first)
        assert tracker.to_dict() == fresh.to_dict()

    def test_jsd_baseline_is_the_estimator_on_its_own_base(self, o_ref, config):
        tracker = self._bootstrapped(o_ref)
        policy = RejectionPolicy(config, tracker, gan=None, jsd_seed=4)
        baseline = policy._jsd_baseline()
        assert policy._jsd.base is not None
        assert baseline == pair_distribution_jsd(
            tracker.current(), o_ref, seed=4, n_samples=JSD_SAMPLES
        )

    def test_stats_tally(self, o_ref, config, rng):
        tracker = DistributionTracker(o_ref, rng)
        floor = 0.0  # everything scores below zero log-density... very strict
        policy = RejectionPolicy(config, tracker, gan=None, plausibility_floor=1e9)
        policy.evaluate(None, np.array([[0.9, 0.85]]))
        assert policy.stats["distribution"] == 1
