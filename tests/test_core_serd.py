"""Integration tests for the full SERD pipeline (fit + synthesize)."""

import numpy as np
import pytest

from repro.core import SERDConfig, SERDSynthesizer
from repro.core.cold_start import cold_start_entity
from repro.core.labeling import label_all_pairs
from repro.datasets import load_background, load_dataset
from repro.gan import TabularGANConfig
from repro.privacy.dpsgd import DPSGDConfig
from repro.schema import Entity, Relation
from repro.textgen.transformer_backend import (
    TransformerTextSynthesizer,
    TransformerTextSynthesizerConfig,
)

# A transformer small enough to train in a few seconds.
TINY_TRANSFORMER = TransformerTextSynthesizerConfig(
    n_buckets=2, n_candidates=2, training_iterations=2, d_model=16
)


@pytest.fixture(scope="module")
def real():
    return load_dataset("restaurant", scale=0.1, seed=21)


@pytest.fixture(scope="module")
def fitted(real):
    config = SERDConfig(seed=21, gan=TabularGANConfig(iterations=40))
    synthesizer = SERDSynthesizer(config)
    synthesizer.fit(real)
    return synthesizer


@pytest.fixture(scope="module")
def output(fitted):
    return fitted.synthesize()


class TestFit:
    def test_learns_o_distribution(self, fitted):
        assert fitted.o_real is not None
        assert 0.0 < fitted.o_real.match_probability < 1.0
        assert fitted.o_labeling.match_probability < fitted.o_real.match_probability

    def test_match_edge_rate(self, fitted, real):
        expected = len(real.matches) / (len(real.table_a) + len(real.table_b) - 1)
        assert fitted.match_edge_rate == pytest.approx(expected)

    def test_text_backends_per_column(self, fitted, real):
        assert set(fitted._text_backends) == {
            a.name for a in real.schema.text_attributes
        }

    def test_plausibility_floor_set(self, fitted):
        assert fitted.plausibility_floor is not None
        assert np.isfinite(fitted.plausibility_floor)

    def test_background_resolved_from_registry(self, fitted):
        assert all(len(v) > 0 for v in fitted._background.values())

    def test_synthesize_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            SERDSynthesizer(SERDConfig()).synthesize()

    def test_unknown_dataset_needs_background(self, paper_tables):
        from repro.schema import ERDataset

        table_a, table_b = paper_tables
        tiny = ERDataset(table_a, table_b, [("a1", "b1"), ("a2", "b2")],
                         name="not-in-registry")
        synthesizer = SERDSynthesizer(SERDConfig())
        with pytest.raises(ValueError, match="registry"):
            synthesizer.fit(tiny)

    def test_explicit_background_accepted(self, real):
        background = load_background("restaurant", size=40, seed=1)
        synthesizer = SERDSynthesizer(
            SERDConfig(seed=1, gan=TabularGANConfig(iterations=5))
        )
        synthesizer.fit(real, background=background)
        assert synthesizer.o_real is not None

    def test_missing_background_column_rejected(self, real):
        synthesizer = SERDSynthesizer(SERDConfig())
        with pytest.raises(ValueError, match="missing"):
            synthesizer.fit(real, background={"name": ["x"]})  # no 'address'


class TestSynthesize:
    def test_table_sizes_match_real(self, output, real):
        stats = output.dataset.statistics()
        assert stats["|A|"] == len(real.table_a)
        assert stats["|B|"] == len(real.table_b)

    def test_custom_sizes(self, fitted):
        result = fitted.synthesize(n_a=12, n_b=15)
        assert len(result.dataset.table_a) == 12
        assert len(result.dataset.table_b) == 15

    def test_invalid_sizes(self, fitted):
        with pytest.raises(ValueError):
            fitted.synthesize(n_a=0)

    def test_match_density_tracks_real(self, output, real):
        real_density = len(real.matches) / (
            len(real.table_a) * len(real.table_b)
        )
        stats = output.dataset.statistics()
        syn_density = stats["|M|"] / (stats["|A|"] * stats["|B|"])
        assert syn_density == pytest.approx(real_density, rel=0.75)

    def test_no_real_entities_copied(self, output, real):
        real_names = set(real.table_a.column("name"))
        synthetic_names = set(output.dataset.table_a.column("name")) | set(
            output.dataset.table_b.column("name")
        )
        assert not (real_names & synthetic_names)

    def test_sampled_matches_look_matching(self, output, fitted):
        dataset = output.dataset
        sampled = dataset.matches[: output.n_sampled_matches]
        vectors = fitted.similarity_model.vectors(
            dataset.resolve(p) for p in sampled
        )
        # Most sampled matching pairs classify as matches under O_real.
        labels = fitted.o_labeling.classify(vectors)
        assert labels.mean() > 0.6

    def test_diagnostics_populated(self, output):
        assert output.rejection_stats["accepted"] > 0
        assert output.n_posterior_labeled > 0
        assert output.offline_seconds > 0
        assert output.online_seconds > 0
        assert output.jsd_final is None or 0.0 <= output.jsd_final <= np.log(2)

    def test_all_entity_ids_unique(self, output):
        ids_a = [e.entity_id for e in output.dataset.table_a]
        ids_b = [e.entity_id for e in output.dataset.table_b]
        assert len(set(ids_a)) == len(ids_a)
        assert len(set(ids_b)) == len(ids_b)

    def test_one_to_one_matches_in_sampled_edges(self, output):
        sampled = output.dataset.matches[: output.n_sampled_matches]
        a_sides = [a for a, _ in sampled]
        b_sides = [b for _, b in sampled]
        assert len(set(a_sides)) == len(a_sides)
        assert len(set(b_sides)) == len(b_sides)


class TestSerdMinus:
    def test_without_rejection_runs_and_skips_checks(self, real):
        config = SERDConfig(
            seed=5, gan=TabularGANConfig(iterations=5)
        ).without_rejection()
        synthesizer = SERDSynthesizer(config)
        synthesizer.fit(real)
        result = synthesizer.synthesize(n_a=15, n_b=15)
        assert result.rejection_stats["discriminator"] == 0
        assert result.rejection_stats["distribution"] == 0
        assert len(result.dataset.table_a) == 15


class TestColdStart:
    def test_per_column_sampling(self, fitted, real, rng):
        entity = cold_start_entity(
            real.schema,
            fitted.similarity_model.ranges,
            fitted._categorical_values["a"],
            fitted._background,
            rng,
            entity_id="boot",
            gan=None,
        )
        assert entity.entity_id == "boot"
        assert entity["city"] in fitted._categorical_values["a"]["city"]
        assert entity["name"] in fitted._background["name"]

    def test_gan_cold_start(self, fitted, rng):
        entity = cold_start_entity(
            fitted._real.schema,
            fitted.similarity_model.ranges,
            fitted._categorical_values["a"],
            fitted._background,
            rng,
            gan=fitted.gan,
        )
        assert entity["city"] in fitted._categorical_values["a"]["city"]

    def test_missing_background_rejected(self, fitted, real, rng):
        with pytest.raises(ValueError, match="background"):
            cold_start_entity(
                real.schema,
                fitted.similarity_model.ranges,
                fitted._categorical_values["a"],
                {},
                rng,
            )


class TestLabeling:
    def test_label_all_pairs_budget(self, fitted, real, rng):
        schema = real.schema
        entities_a = [
            Entity(f"x{i}", schema, list(real.table_a[i].values)) for i in range(6)
        ]
        entities_b = [
            Entity(f"y{i}", schema, list(real.table_a[i].values)) for i in range(6)
        ]
        table_a = Relation("A", schema, entities_a)
        table_b = Relation("B", schema, entities_b)
        matches, n_labeled = label_all_pairs(
            table_a, table_b, set(), fitted.o_labeling, fitted.similarity_model,
            max_matches=2,
        )
        assert n_labeled == 36
        assert len(matches) <= 2  # identical rows would match, budget caps it

    def test_known_pairs_skipped(self, fitted, real):
        schema = real.schema
        table = Relation(
            "A", schema, [Entity("x0", schema, list(real.table_a[0].values))]
        )
        matches, n_labeled = label_all_pairs(
            table, table, {("x0", "x0")}, fitted.o_labeling,
            fitted.similarity_model,
        )
        assert n_labeled == 0
        assert matches == []


class TestTransformerSettings:
    """The text stage trains the transformer ``config.transformer`` names."""

    def test_bucket_models_and_epsilon(self):
        real = load_dataset("restaurant", scale=0.05, seed=21)
        config = SERDConfig(
            seed=21, text_backend="transformer", dp=DPSGDConfig(),
            transformer=TINY_TRANSFORMER,
        )
        synthesizer = SERDSynthesizer(config)
        synthesizer.fit(real, train_gan=False)
        backends = synthesizer._text_backends
        assert set(backends) == {a.name for a in real.schema.text_attributes}
        for backend in backends.values():
            assert isinstance(backend, TransformerTextSynthesizer)
            assert len(backend._models) == 2
            assert backend.config.n_candidates == 2
            assert backend.config.dp == config.dp
        output = synthesizer.synthesize(n_a=8, n_b=8)
        assert output.epsilon is not None
        assert output.epsilon == sum(b.epsilon() for b in backends.values())

    def test_non_private_transformer_reports_no_epsilon(self):
        real = load_dataset("restaurant", scale=0.05, seed=21)
        synthesizer = SERDSynthesizer(
            SERDConfig(seed=21, text_backend="transformer", transformer=TINY_TRANSFORMER)
        )
        synthesizer.fit(real, train_gan=False)
        assert synthesizer.synthesize(n_a=8, n_b=8).epsilon is None
