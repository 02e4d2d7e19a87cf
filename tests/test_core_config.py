"""Tests for SERDConfig validation and derivation."""

import dataclasses

import pytest

from repro.core import SERDConfig
from repro.privacy.dpsgd import DPSGDConfig
from repro.textgen.transformer_backend import TransformerTextSynthesizerConfig


class TestValidation:
    def test_defaults_are_paper_settings(self):
        config = SERDConfig()
        assert config.alpha == 1.0
        assert config.beta == 0.6
        assert config.transformer.n_buckets == 10
        assert config.transformer.n_candidates == 10
        assert len(dataclasses.fields(config)) == 15

    def test_transformer_dp_must_agree_with_dp(self):
        transformer = TransformerTextSynthesizerConfig(dp=DPSGDConfig())
        with pytest.raises(ValueError, match="transformer.dp"):
            SERDConfig(transformer=transformer)
        with pytest.raises(ValueError, match="transformer.dp"):
            SERDConfig(transformer=transformer, dp=DPSGDConfig(noise_scale=2.0))
        assert SERDConfig(transformer=transformer, dp=DPSGDConfig()).dp == DPSGDConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"beta": 1.5},
            {"beta": -0.1},
            {"text_backend": "gpt"},
            {"max_rejection_retries": 0},
            {"delta_sample_size": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SERDConfig(**kwargs)

    def test_infinite_alpha_allowed(self):
        assert SERDConfig(alpha=float("inf")).alpha == float("inf")


class TestWithoutRejection:
    def test_produces_serd_minus(self):
        base = SERDConfig(seed=9, alpha=2.0)
        minus = base.without_rejection()
        assert not minus.reject_entities
        assert base.reject_entities  # original untouched
        assert minus.seed == 9
        assert minus.alpha == 2.0

    def test_helper_function(self):
        from repro.baselines import serd_minus_config

        config = serd_minus_config()
        assert not config.reject_entities


def parent_format(payload: dict, flag: bool) -> dict:
    """A config payload as written before the retired options were removed.

    The shadow knobs ``n_similarity_buckets``/``n_text_candidates`` carry
    the transformer's own values unless a test overrides them.
    """
    payload = dict(
        payload,
        use_similarity_kernels=flag,
        use_blocking_for_labeling=flag,
        fallback_warn_threshold=0.5,
        fallback_warn_min=20,
        n_text_candidates=payload["transformer"]["n_candidates"],
        n_similarity_buckets=payload["transformer"]["n_buckets"],
        rule_max_steps=12,
        rule_tolerance=0.05,
        jsd_samples=256,
        jsd_slack=0.01,
        plausibility_quantile=0.02,
        plausibility_margin=2.0,
        reject_unintended_matches=flag,
        max_gmm_components=3,
        negative_ratio=3.0,
        hard_negative_fraction=0.5,
        label_all_pairs=flag,
        one_to_one_matches=flag,
        labeling_chunk_size=4096,
    )
    payload["transformer"] = dict(
        payload["transformer"], dp_vectorized=flag, generation_cache=flag
    )
    return payload


class TestSerialization:
    @pytest.mark.parametrize("flag", [True, False])
    def test_parent_payload_loads(self, flag):
        """Manifests written with the retired switch keys still load."""
        config = SERDConfig(seed=3)
        loaded = SERDConfig.from_dict(parent_format(config.to_dict(), flag))
        assert loaded == config
        assert loaded.to_dict() == config.to_dict()

    def test_parent_shadow_knobs_win(self):
        """The parent trained the shadow knobs' bucket and candidate
        counts, whatever its ``transformer`` section said."""
        config = SERDConfig(
            transformer=TransformerTextSynthesizerConfig(n_buckets=5, n_candidates=4)
        )
        payload = parent_format(config.to_dict(), True)
        payload.update(n_similarity_buckets=10, n_text_candidates=10)
        loaded = SERDConfig.from_dict(payload)
        assert loaded.transformer.n_buckets == 10
        assert loaded.transformer.n_candidates == 10

    def test_parent_dp_overrides_transformer_dp(self):
        """The parent trained with the top-level ``dp`` only."""
        private = SERDConfig(dp=DPSGDConfig(noise_scale=2.0)).to_dict()
        loaded = SERDConfig.from_dict(parent_format(private, False))
        assert loaded.transformer.dp == loaded.dp == DPSGDConfig(noise_scale=2.0)

        public = parent_format(SERDConfig().to_dict(), False)
        public["transformer"]["dp"] = dataclasses.asdict(DPSGDConfig())
        loaded = SERDConfig.from_dict(public)
        assert loaded.dp is None and loaded.transformer.dp is None

    def test_round_trip(self):
        config = SERDConfig(
            seed=4, dp=DPSGDConfig(),
            transformer=TransformerTextSynthesizerConfig(n_buckets=3, dp=DPSGDConfig()),
        )
        assert SERDConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_still_rejected(self):
        payload = dict(SERDConfig().to_dict(), not_a_field=1)
        with pytest.raises(TypeError):
            SERDConfig.from_dict(payload)
