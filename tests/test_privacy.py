"""Tests for DP-SGD, the RDP accountant, and privacy metrics."""

import numpy as np
import pytest

from repro.nn import Linear, Tensor
from repro.nn.losses import mse_loss
from repro.privacy import (
    DPSGDConfig,
    RDPAccountant,
    distance_to_closest_record,
    dp_sgd_step,
    hitting_rate,
    noise_scale_for_epsilon,
)
from repro.privacy.accountant import rdp_sampled_gaussian
from repro.privacy.metrics import entities_similar, entity_similarity
from repro.schema import Entity, make_schema
from repro.similarity import SimilarityModel


class TestDPSGDConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DPSGDConfig(noise_scale=-1)
        with pytest.raises(ValueError):
            DPSGDConfig(clip_norm=0)
        with pytest.raises(ValueError):
            DPSGDConfig(learning_rate=0)


class TestDPSGDStep:
    def _problem(self, rng):
        model = Linear(3, 1, rng)
        features = rng.normal(size=(32, 3))
        targets = features @ np.array([1.0, -1.0, 2.0])

        def loss_fn(module, example):
            x, y = example
            return mse_loss(module(Tensor(x[None, :])), np.array([[y]]))

        examples = list(zip(features, targets))
        return model, examples, loss_fn

    def test_noiseless_training_converges(self, rng):
        model, examples, loss_fn = self._problem(rng)
        config = DPSGDConfig(noise_scale=0.0, clip_norm=10.0, learning_rate=0.2)
        losses = [
            dp_sgd_step(model, examples, loss_fn, config, rng) for _ in range(60)
        ]
        assert losses[-1] < 0.05 * losses[0]

    def test_noise_perturbs_updates(self, rng):
        model, examples, loss_fn = self._problem(rng)
        before = model.weight.data.copy()
        config = DPSGDConfig(noise_scale=5.0, clip_norm=0.1, learning_rate=0.5)
        dp_sgd_step(model, examples[:4], loss_fn, config, rng)
        delta = model.weight.data - before
        # Update dominated by noise: magnitude far above the clipped signal.
        assert np.abs(delta).max() > 0.5 * 0.1 / 4

    def test_clipping_bounds_signal(self, rng):
        model, examples, loss_fn = self._problem(rng)
        before = np.concatenate(
            [model.weight.data.ravel(), model.bias.data.ravel()]
        )
        config = DPSGDConfig(noise_scale=0.0, clip_norm=0.01, learning_rate=1.0)
        dp_sgd_step(model, examples, loss_fn, config, rng)
        after = np.concatenate(
            [model.weight.data.ravel(), model.bias.data.ravel()]
        )
        # Average of clipped per-example grads has norm <= clip_norm.
        assert np.linalg.norm(after - before) <= 0.01 + 1e-9

    def test_empty_batch_rejected(self, rng):
        model, _, loss_fn = self._problem(rng)
        with pytest.raises(ValueError):
            dp_sgd_step(model, [], loss_fn, DPSGDConfig(), rng)


class TestRDPAccountant:
    def test_epsilon_grows_with_steps(self):
        acc = RDPAccountant()
        acc.step(0.1, 1.0, steps=10)
        eps_10 = acc.epsilon(1e-5)
        acc.step(0.1, 1.0, steps=90)
        assert acc.epsilon(1e-5) > eps_10

    def test_epsilon_shrinks_with_noise(self):
        low_noise = RDPAccountant()
        low_noise.step(0.1, 0.8, steps=50)
        high_noise = RDPAccountant()
        high_noise.step(0.1, 4.0, steps=50)
        assert high_noise.epsilon(1e-5) < low_noise.epsilon(1e-5)

    def test_zero_sampling_rate_free(self):
        acc = RDPAccountant()
        acc.step(0.0, 1.0, steps=100)
        assert acc.epsilon(1e-5) < 1.0  # only the log(1/delta) term remains

    def test_full_batch_matches_plain_gaussian(self):
        # q=1: RDP(alpha) = alpha / (2 sigma^2)
        assert rdp_sampled_gaussian(1.0, 2.0, 8) == pytest.approx(8 / 8.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(1.5, 1.0, 2)
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(0.5, 0.0, 2)
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(0.5, 1.0, 1)
        with pytest.raises(ValueError):
            RDPAccountant().epsilon(0.0)

    def test_reset(self):
        acc = RDPAccountant()
        acc.step(0.2, 1.0, steps=100)
        acc.reset()
        fresh = RDPAccountant()
        assert acc.epsilon(1e-5) == fresh.epsilon(1e-5)

    def test_noise_scale_search(self):
        sigma = noise_scale_for_epsilon(1.0, 1e-5, 0.05, steps=200)
        acc = RDPAccountant()
        acc.step(0.05, sigma, 200)
        assert acc.epsilon(1e-5) <= 1.0 + 1e-2
        # A slightly smaller sigma should exceed the budget.
        acc2 = RDPAccountant()
        acc2.step(0.05, max(0.3, sigma * 0.8), 200)
        assert acc2.epsilon(1e-5) > 1.0 or sigma <= 0.31


class TestAccountantEdges:
    """Edge behavior the ε-sweep (Exp-6) leans on: strict monotonicity and
    agreement between the budget search and a fresh accountant replay."""

    def test_epsilon_strictly_monotone_in_steps(self):
        epsilons = []
        for steps in (10, 40, 160, 640):
            acc = RDPAccountant()
            acc.step(0.25, 2.0, steps=steps)
            epsilons.append(acc.epsilon(1e-5))
        assert all(b > a for a, b in zip(epsilons, epsilons[1:]))

    def test_epsilon_strictly_monotone_in_noise(self):
        epsilons = []
        for noise in (0.6, 1.0, 2.0, 4.0, 8.0):
            acc = RDPAccountant()
            acc.step(0.25, noise, steps=64)
            epsilons.append(acc.epsilon(1e-5))
        assert all(b < a for a, b in zip(epsilons, epsilons[1:]))

    def test_incremental_steps_match_one_shot(self):
        whole = RDPAccountant()
        whole.step(0.125, 1.5, steps=100)
        piecewise = RDPAccountant()
        for _ in range(10):
            piecewise.step(0.125, 1.5, steps=10)
        assert piecewise.epsilon(1e-5) == pytest.approx(
            whole.epsilon(1e-5), rel=1e-12
        )

    @pytest.mark.parametrize("target", [0.5, 1.0, 2.0, 4.0])
    def test_noise_scale_round_trip(self, target):
        # The Exp-6 sweep contract: searching a noise multiplier for a
        # budget and replaying it through a fresh accountant lands on the
        # target (within the search tolerance), never over budget by more
        # than that tolerance.
        sampling_rate, steps = 0.25, 16
        sigma = noise_scale_for_epsilon(target, 1e-5, sampling_rate, steps)
        acc = RDPAccountant()
        acc.step(sampling_rate, sigma, steps)
        measured = acc.epsilon(1e-5)
        assert measured == pytest.approx(target, rel=0.02, abs=0.01)
        assert measured <= target + 1e-2


class TestAccountantCurveMemo:
    """``step`` reads the per-step RDP curve from a per-key memo."""

    def test_steps_equal_fresh_curve_bitwise(self):
        acc = RDPAccountant()
        expected = np.zeros(len(acc.orders))
        for _ in range(30):
            acc.step(0.125, 1.1)
            expected += 1 * np.array(
                [rdp_sampled_gaussian(0.125, 1.1, o) for o in acc.orders]
            )
        np.testing.assert_array_equal(acc._rdp, expected)

    def test_accountants_share_no_state(self):
        first, second = RDPAccountant(), RDPAccountant()
        first.step(0.2, 1.0, steps=50)
        second.step(0.2, 1.0, steps=1)
        assert first.epsilon(1e-5) > second.epsilon(1e-5)
        first.reset()
        third = RDPAccountant()
        third.step(0.2, 1.0, steps=1)
        assert second.epsilon(1e-5) == third.epsilon(1e-5)

    def test_noise_scale_search_values_pinned(self):
        # Values of the search before the memo existed, to the last bit.
        cases = {
            (1.0, 0.1, 30): 3.1294479370117188,
            (3.0, 0.05, 100): 1.2671249389648436,
            (0.5, 0.2, 10): 6.739399719238281,
            (8.0, 1.0, 5): 1.5509445190429687,
        }
        for (target, rate, steps), sigma in cases.items():
            assert noise_scale_for_epsilon(target, 1e-5, rate, steps) == sigma


class TestPrivacyMetrics:
    @pytest.fixture
    def setup(self):
        schema = make_schema({"name": "text", "city": "categorical"})
        model = SimilarityModel(schema, ranges={})
        real = [
            Entity("r1", schema, ["golden dragon cafe", "austin"]),
            Entity("r2", schema, ["blue harbor grill", "boston"]),
        ]
        return schema, model, real

    def test_identical_entity_hits(self, setup):
        schema, model, real = setup
        clone = Entity("s1", schema, ["golden dragon cafe", "austin"])
        assert entities_similar(model, clone, real[0])
        assert hitting_rate(model, [clone], real) == pytest.approx(0.5)

    def test_different_entity_misses(self, setup):
        schema, model, real = setup
        other = Entity("s1", schema, ["quiet willow tavern", "austin"])
        assert not entities_similar(model, other, real[0])

    def test_categorical_mismatch_blocks_similarity(self, setup):
        schema, model, real = setup
        moved = Entity("s1", schema, ["golden dragon cafe", "boston"])
        assert not entities_similar(model, moved, real[0])

    def test_dcr_zero_for_exact_copy(self, setup):
        schema, model, real = setup
        clone = Entity("s1", schema, ["golden dragon cafe", "austin"])
        dcr = distance_to_closest_record(model, [real[0]], [clone])
        assert dcr == pytest.approx(0.0)

    def test_dcr_higher_for_distant_synthetic(self, setup):
        schema, model, real = setup
        near = Entity("s1", schema, ["golden dragon cafes", "austin"])
        far = Entity("s2", schema, ["zzz qqq", "paris"])
        assert distance_to_closest_record(model, real, [far]) > (
            distance_to_closest_record(model, real, [near])
        )

    def test_entity_similarity_is_mean(self, setup):
        schema, model, real = setup
        same_city = Entity("s1", schema, ["zzz", "austin"])
        value = entity_similarity(model, same_city, real[0])
        assert 0.4 < value < 0.6  # text ~0, categorical 1 -> mean ~0.5

    def test_empty_collections_rejected(self, setup):
        _, model, real = setup
        with pytest.raises(ValueError):
            hitting_rate(model, [], real)
        with pytest.raises(ValueError):
            distance_to_closest_record(model, real, [])
