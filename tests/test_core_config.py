"""Tests for SERDConfig validation and derivation."""

import pytest

from repro.core import SERDConfig


class TestValidation:
    def test_defaults_are_paper_settings(self):
        config = SERDConfig()
        assert config.alpha == 1.0
        assert config.beta == 0.6
        assert config.n_similarity_buckets == 10
        assert config.n_text_candidates == 10

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
    """A config payload as written before the path switches were removed."""
    payload = dict(payload, use_similarity_kernels=flag)
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

    def test_unknown_key_still_rejected(self):
        payload = dict(SERDConfig().to_dict(), not_a_field=1)
        with pytest.raises(TypeError):
            SERDConfig.from_dict(payload)
