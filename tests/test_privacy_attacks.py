"""Tests for the privacy attack batteries (repro.privacy.attacks)."""

import dataclasses

import numpy as np
import pytest

from repro.privacy.attacks import (
    membership_scores,
    nearest_record_battery,
    roc_auc,
    run_membership_inference,
    tpr_at_fpr,
)
from repro.schema import Entity, make_schema
from repro.similarity import SimilarityModel
from repro.textgen.transformer_backend import (
    TransformerTextSynthesizer,
    TransformerTextSynthesizerConfig,
)

from tests.reference import similarity as reference

TINY_MIA_CONFIG = TransformerTextSynthesizerConfig(
    n_buckets=2,
    n_candidates=2,
    pairs_per_bucket=8,
    training_iterations=2,
    batch_size=4,
    d_model=8,
    max_length=16,
)

CORPUS = [
    "golden dragon cafe",
    "blue harbor grill",
    "quiet willow tavern",
    "sunset terrace bistro",
    "maple street diner",
    "north pier oyster bar",
    "old town bakery",
    "river bend kitchen",
    "silver spoon eatery",
    "garden gate brasserie",
    "copper kettle pub",
    "white sail chowder house",
    "midnight espresso bar",
    "harvest moon cantina",
    "stone bridge trattoria",
    "lighthouse fish fry",
]


class TestRocUtilities:
    def test_perfect_separation(self):
        assert roc_auc(np.array([3.0, 4.0]), np.array([1.0, 2.0])) == 1.0
        assert roc_auc(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 0.0

    def test_indistinguishable_scores(self):
        assert roc_auc(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.5

    def test_tie_correction(self):
        # Member 5 beats both non-members, member 2 ties one (counts half)
        # and beats the other: (2 + 0.5 + 1) / 4.
        auc = roc_auc(np.array([5.0, 2.0]), np.array([2.0, 1.0]))
        assert auc == pytest.approx(0.875)

    def test_tpr_at_fpr(self):
        members = np.array([4.0, 3.0, 2.0])
        others = np.array([2.5, 1.0, 0.5, 0.2])
        # Threshold 3.0: TPR 2/3 at FPR 0; threshold 2.0 would catch all
        # members but admit 1/4 non-members (FPR 0.25 > 0.1).
        assert tpr_at_fpr(members, others, 0.1) == pytest.approx(2 / 3)
        assert tpr_at_fpr(members, others, 0.25) == 1.0

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([]), np.array([1.0]))
        with pytest.raises(ValueError):
            tpr_at_fpr(np.array([1.0]), np.array([]))


class TestNearestRecordBattery:
    @pytest.fixture
    def setup(self):
        schema = make_schema({"name": "text", "city": "categorical"})
        model = SimilarityModel(schema, ranges={})
        real = [
            Entity("r1", schema, ["golden dragon cafe", "austin"]),
            Entity("r2", schema, ["blue harbor grill", "boston"]),
            Entity("r3", schema, ["quiet willow tavern", "chicago"]),
        ]
        return schema, model, real

    def test_exact_copy_detected_and_singled_out(self, setup):
        schema, model, real = setup
        clone = Entity("s1", schema, ["golden dragon cafe", "austin"])
        audit = nearest_record_battery(model, [clone], real)
        assert audit.exact_copies == 1
        assert audit.dcr_min == pytest.approx(0.0)
        # 0.9-similar to exactly one real record -> singled out.
        assert audit.singling_out_count == 1
        assert audit.singling_out_rate == 1.0

    def test_distant_record_not_singled_out(self, setup):
        schema, model, real = setup
        far = Entity("s1", schema, ["zzz qqq www", "paris"])
        audit = nearest_record_battery(model, [far], real)
        assert audit.exact_copies == 0
        assert audit.singling_out_count == 0
        assert audit.dcr_min > 0.5

    def test_nndr_low_for_copy_of_isolated_record(self, setup):
        schema, model, real = setup
        clone = Entity("s1", schema, ["golden dragon cafe", "austin"])
        audit = nearest_record_battery(model, [clone], real)
        # d1 = 0 and d2 >> 0, so the ratio collapses to 0.
        assert audit.nndr_median == pytest.approx(0.0, abs=1e-9)

    def test_single_real_record(self, setup):
        schema, model, real = setup
        clone = Entity("s1", schema, ["golden dragon cafe", "austin"])
        audit = nearest_record_battery(model, [clone], real[:1])
        assert audit.n_real == 1
        assert audit.exact_copies == 1
        assert audit.singling_out_count == 1  # no second neighbor exists

    def test_kernel_path_matches_scalar_bitwise(self, tiny_restaurant):
        model = SimilarityModel.from_relations(
            tiny_restaurant.table_a, tiny_restaurant.table_b
        )
        synthetic = list(tiny_restaurant.table_b)[:12]
        real = list(tiny_restaurant.table_a)
        kernel = nearest_record_battery(model, synthetic, real)
        scalar = reference.nearest_record_battery(model, synthetic, real)
        assert kernel == scalar  # frozen dataclass: field-exact equality

    def test_small_max_cells_changes_nothing(self, tiny_restaurant):
        model = SimilarityModel.from_relations(
            tiny_restaurant.table_a, tiny_restaurant.table_b
        )
        synthetic = list(tiny_restaurant.table_b)[:10]
        real = list(tiny_restaurant.table_a)
        one_tile = nearest_record_battery(model, synthetic, real)
        many_tiles = nearest_record_battery(
            model, synthetic, real, max_cells=len(real) * 2
        )
        assert one_tile == many_tiles

    def test_empty_collections_rejected(self, setup):
        _, model, real = setup
        with pytest.raises(ValueError):
            nearest_record_battery(model, [], real)
        with pytest.raises(ValueError):
            nearest_record_battery(model, real, [])


class TestMembershipInference:
    def test_deterministic_given_seed(self):
        first = run_membership_inference(CORPUS, TINY_MIA_CONFIG, seed=3)
        second = run_membership_inference(CORPUS, TINY_MIA_CONFIG, seed=3)
        assert first == second

    def test_seed_changes_attack(self):
        first = run_membership_inference(CORPUS, TINY_MIA_CONFIG, seed=3)
        other = run_membership_inference(CORPUS, TINY_MIA_CONFIG, seed=4)
        # Different splits/inits: thresholds almost surely differ.
        assert first.shadow_threshold != other.shadow_threshold

    def test_result_shape(self):
        result = run_membership_inference(CORPUS, TINY_MIA_CONFIG, seed=3)
        assert 0.0 <= result.auc <= 1.0
        assert 0.0 <= result.tpr_at_low_fpr <= 1.0
        assert result.n_members == result.n_nonmembers == len(CORPUS) // 4
        assert result.epsilon is None  # no DP config
        payload = result.to_dict()
        assert payload["auc"] == result.auc

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ValueError, match=">= 8 distinct"):
            run_membership_inference(CORPUS[:5], TINY_MIA_CONFIG, seed=3)

    def test_duplicates_and_blanks_cleaned(self):
        noisy = CORPUS + ["", "  "] + CORPUS[:4]
        result = run_membership_inference(noisy, TINY_MIA_CONFIG, seed=3)
        clean = run_membership_inference(CORPUS, TINY_MIA_CONFIG, seed=3)
        assert result == clean

    def test_membership_scores_eval_mode(self):
        backend = TransformerTextSynthesizer(TINY_MIA_CONFIG)
        backend.fit(CORPUS[:8], np.random.default_rng(0))
        scores = membership_scores(backend, CORPUS[:4])
        assert scores.shape == (4,)
        assert np.all(np.isfinite(scores))
        # Dropout is disabled during scoring, so scores are reproducible.
        assert np.array_equal(scores, membership_scores(backend, CORPUS[:4]))
        # Scoring must not leave models in eval mode.
        assert all(
            record.model.training
            for record in backend._models
            if record is not None
        )

    def test_dp_config_reports_epsilon(self):
        from repro.privacy.dpsgd import DPSGDConfig

        config = dataclasses.replace(
            TINY_MIA_CONFIG, dp=DPSGDConfig(noise_scale=2.0, clip_norm=0.5)
        )
        result = run_membership_inference(CORPUS, config, seed=3)
        assert result.epsilon is not None and result.epsilon > 0
