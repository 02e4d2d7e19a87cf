"""Tests for the model registry (repro.service.registry)."""

import shutil

import pytest

from repro.core import SERDConfig, SERDSynthesizer
from repro.gan import TabularGANConfig
from repro.runtime.checkpoint import StageCheckpointer
from repro.runtime.health import RESUMED
from repro.runtime.io import as_path, atomic_write_json, read_json
from repro.service import ModelRegistry
from repro.service.registry import config_hash, dataset_fingerprint

from tests.test_core_config import parent_format


def _small_config(**overrides):
    defaults = dict(seed=5, gan=TabularGANConfig(iterations=15), checkpoint_every=5)
    defaults.update(overrides)
    return SERDConfig(**defaults)


class TestFingerprints:
    def test_config_hash_stable_and_sensitive(self):
        assert config_hash(_small_config()) == config_hash(_small_config())
        assert config_hash(_small_config()) != config_hash(_small_config(seed=6))

    def test_dataset_fingerprint_stable_and_sensitive(self, service_real, tiny_restaurant):
        assert dataset_fingerprint(service_real) == dataset_fingerprint(service_real)
        assert dataset_fingerprint(service_real) != dataset_fingerprint(tiny_restaurant)


class TestRegistryLookup:
    def test_names_and_versions(self, service_registry):
        assert "restaurant" in service_registry.names()
        versions = service_registry.versions("restaurant")
        assert [v.version for v in versions] == ["v1"]
        assert service_registry.latest("restaurant").version == "v1"

    def test_meta_records_provenance(self, service_registry, service_real):
        entry = service_registry.get("restaurant")
        meta = entry.meta
        assert meta["config_hash"] == config_hash(
            SERDConfig.from_dict(meta["config"])
        )
        assert meta["dataset"]["fingerprint"] == dataset_fingerprint(service_real)
        assert meta["dataset"]["n_a"] == len(service_real.table_a)
        stage_names = [s["name"] for s in meta["health"]["stages"]]
        assert {"s1", "text", "gan"} <= set(stage_names)

    def test_unknown_model_and_version(self, service_registry):
        with pytest.raises(KeyError, match="no model named"):
            service_registry.latest("nonexistent")
        with pytest.raises(KeyError, match="no version"):
            service_registry.get("restaurant", "v99")

    def test_invalid_name_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(ValueError, match="invalid model name"):
            registry.versions("../escape")

    def test_list_models_flat_rows(self, service_registry):
        rows = service_registry.list_models()
        assert any(
            row["name"] == "restaurant" and row["version"] == "v1" for row in rows
        )


class TestRegistryLoad:
    def test_load_restores_without_retraining(self, service_registry):
        synthesizer, entry = service_registry.load("restaurant")
        assert entry.version == "v1"
        assert synthesizer.o_real is not None
        assert synthesizer.factory is not None
        # Every fit stage must be restored from the committed checkpoints,
        # not recomputed — that is the whole point of the registry.
        for stage in ("s1", "text", "gan"):
            assert synthesizer.health.stage(stage).status == RESUMED

    def test_load_then_synthesize_matches_registering_process(
        self, service_registry, service_real
    ):
        """Loading twice gives the same post-fit RNG state: identical output."""
        first, _ = service_registry.load("restaurant")
        second, _ = service_registry.load("restaurant")
        with pytest.warns(RuntimeWarning):  # tiny scale livelocks; expected
            d1 = first.synthesize(12, 12).dataset
        with pytest.warns(RuntimeWarning):
            d2 = second.synthesize(12, 12).dataset
        assert [e.values for e in d1.table_a] == [e.values for e in d2.table_a]
        assert [e.values for e in d1.table_b] == [e.values for e in d2.table_b]
        assert d1.matches == d2.matches

    def test_versions_increment(self, tmp_path, service_real):
        registry = ModelRegistry(tmp_path / "reg")
        config = _small_config()
        v1 = registry.register("m", service_real, config, train_gan=False)
        v2 = registry.register("m", service_real, config, train_gan=False)
        assert (v1.version, v2.version) == ("v1", "v2")
        assert registry.latest("m").version == "v2"
        # Same data + config: identical fingerprints across versions.
        assert v1.meta["dataset"]["fingerprint"] == v2.meta["dataset"]["fingerprint"]

    @pytest.mark.parametrize("flag", [True, False])
    def test_load_version_stored_with_retired_config_keys(
        self, tmp_path, service_registry, flag
    ):
        """A version registered before the path switches were removed
        (its manifest and meta.json carry the retired keys) still loads."""
        root = tmp_path / "reg"
        shutil.copytree(service_registry.root, root)
        registry = ModelRegistry(root)
        version_dir = as_path(registry.version_dir("restaurant", "v1"))
        checkpointer = StageCheckpointer(version_dir / "model")
        stored = checkpointer.get_meta("config")
        checkpointer.set_meta("config", parent_format(stored, flag))
        meta = read_json(version_dir / "meta.json")
        meta["config"] = parent_format(meta["config"], flag)
        atomic_write_json(version_dir / "meta.json", meta, indent=2)

        synthesizer, entry = registry.load("restaurant")
        assert "use_similarity_kernels" in entry.meta["config"]
        assert synthesizer.config == SERDConfig.from_dict(stored)
        for stage in ("s1", "text", "gan"):
            assert synthesizer.health.stage(stage).status == RESUMED

    def test_str_and_path_roots_interchangeable(self, service_registry):
        as_str = ModelRegistry(str(service_registry.root))
        assert as_str.latest("restaurant").version == "v1"
