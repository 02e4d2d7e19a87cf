"""Tests for the tabular GAN (encoding + adversarial training)."""

from unittest import mock

import numpy as np
import pytest

from repro import load_dataset
from repro.gan import EntityEncoder, TabularGAN, TabularGANConfig
from repro.gan.encoding import text_profile
from repro.nn.tensor import Tensor
from repro.runtime.faults import FaultPlan, FaultSpec, inject_faults
from repro.schema import Entity, Relation, make_schema

from tests.reference import gan as reference

TITLES = [
    "deep learning for joins",
    "query planning revisited",
    "hash index tuning",
    "stream processing engines",
    "graph analytics at scale",
    "vectorized execution",
]


@pytest.fixture
def schema():
    return make_schema({"title": "text", "venue": "categorical", "year": "numeric"})


@pytest.fixture
def relation(schema):
    return Relation("A", schema, [
        Entity(
            f"a{i}", schema,
            [TITLES[i % 6] + f" part {i}", ["vldb", "sigmod"][i % 2], 2000 + i % 10],
        )
        for i in range(24)
    ])


@pytest.fixture
def encoder(schema, relation):
    return EntityEncoder(schema, text_profile_dim=12).fit(
        [relation], text_pools={"title": TITLES}
    )


class TestTextProfile:
    def test_unit_norm(self):
        profile = text_profile("hello world", 16)
        assert np.linalg.norm(profile) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert np.allclose(text_profile("", 16), 0.0)

    def test_similar_strings_close(self):
        a = text_profile("query planning revisited", 32)
        b = text_profile("query planning revisited!", 32)
        c = text_profile("zzzz xxxx yyyy", 32)
        assert a @ b > a @ c


class TestEntityEncoder:
    def test_dim(self, encoder):
        # text 12 + categorical 2 + numeric 1
        assert encoder.dim == 15

    def test_encode_range(self, encoder, relation):
        vector = encoder.encode(relation[0])
        assert vector.shape == (15,)
        assert vector.min() >= 0.0 and vector.max() <= 1.0

    def test_decode_roundtrip_categorical_numeric(self, encoder, relation):
        entity = relation[3]
        decoded = encoder.decode(encoder.encode(entity), "copy")
        assert decoded["venue"] == entity["venue"]
        assert decoded["year"] == entity["year"]

    def test_decode_text_from_pool(self, encoder, relation):
        decoded = encoder.decode(encoder.encode(relation[0]), "copy")
        assert decoded["title"] in TITLES

    def test_unfitted_encoder_rejected(self, schema):
        with pytest.raises(RuntimeError):
            EntityEncoder(schema).encode(None)

    def test_decode_shape_check(self, encoder):
        with pytest.raises(ValueError):
            encoder.decode(np.zeros(3))

    def test_integral_numeric_preserved(self, encoder):
        # 'year' values are all ints at fit time -> decode returns ints.
        decoded = encoder.decode(np.random.default_rng(0).random(encoder.dim))
        assert isinstance(decoded["year"], int)


class TestTabularGAN:
    @pytest.fixture
    def gan(self, encoder, relation):
        gan = TabularGAN(
            encoder, TabularGANConfig(iterations=60, batch_size=12), seed=3
        )
        return gan.fit(relation)

    def test_generates_valid_entities(self, gan, relation):
        entity = gan.generate_entity()
        assert entity["venue"] in ("vldb", "sigmod")
        assert 2000 <= entity["year"] <= 2009
        assert entity["title"] in TITLES

    def test_entity_ids_unique(self, gan):
        ids = {gan.generate_entity().entity_id for _ in range(5)}
        assert len(ids) == 5

    def test_discriminator_scores_in_unit_interval(self, gan, relation):
        score = gan.discriminator_score(relation[0])
        assert 0.0 <= score <= 1.0

    def test_real_scores_higher_than_random_noise_entities(self, gan, relation, schema):
        garbage = Entity("g", schema, ["qqqq zzzz", "vldb", 2000])
        real_scores = [gan.discriminator_score(e) for e in list(relation)[:8]]
        assert np.mean(real_scores) > 0.3  # discriminator not collapsed

    def test_history_recorded(self, gan):
        assert len(gan.history) == 60
        d_loss, g_loss = gan.history[-1]
        assert np.isfinite(d_loss) and np.isfinite(g_loss)

    def test_unfitted_raises(self, encoder):
        gan = TabularGAN(encoder, TabularGANConfig(iterations=1))
        with pytest.raises(RuntimeError):
            gan.generate_entity()
        with pytest.raises(RuntimeError):
            gan.discriminator_score(None)

    def test_needs_two_entities(self, encoder, schema):
        gan = TabularGAN(encoder, TabularGANConfig(iterations=1))
        single = Relation("S", schema, [Entity("x", schema, ["a", "vldb", 2001])])
        with pytest.raises(ValueError):
            gan.fit(single)

    def test_deterministic_generation_given_rng(self, gan):
        a = gan.generate_entity(rng=np.random.default_rng(42))
        b = gan.generate_entity(rng=np.random.default_rng(42))
        assert a.values == b.values


def _same_bits(a: TabularGAN, b: TabularGAN) -> bool:
    """Weights, history, health and generator state equal bit for bit."""
    for left, right in ((a.generator, b.generator), (a.discriminator, b.discriminator)):
        ls, rs = left.state_dict(), right.state_dict()
        if sorted(ls) != sorted(rs):
            return False
        if any(ls[k].tobytes() != rs[k].tobytes() for k in ls):
            return False
    return (
        np.array(a.history).tobytes() == np.array(b.history).tobytes()
        and a.health == b.health
        and a.rng.bit_generator.state == b.rng.bit_generator.state
    )


class TestArrayTraining:
    """``fit``, ``discriminator_score`` and ``generate_vector`` run on plain
    arrays and match the autograd oracle in ``tests/reference/gan.py`` bit
    for bit."""

    @staticmethod
    def _pair(encoder, config, seed):
        return (TabularGAN(encoder, config, seed=seed),
                TabularGAN(encoder, config, seed=seed))

    @pytest.mark.parametrize("seed,batch", [(3, 12), (11, 32)])
    def test_fit_bit_identical_to_autograd(self, encoder, relation, seed, batch):
        # batch 32 > 24 entities: the whole relation is every batch.
        fast, slow = self._pair(
            encoder, TabularGANConfig(iterations=30, batch_size=batch), seed
        )
        fast.fit(relation)
        reference.fit(slow, relation)
        assert _same_bits(fast, slow)
        for entity in relation:
            assert fast.discriminator_score(entity) == reference.discriminator_score(
                slow, entity
            )
        vector = fast.generate_vector(np.random.default_rng(5))
        expected = reference.generate_vector(slow, np.random.default_rng(5))
        assert vector.tobytes() == expected.tobytes()

    def test_fit_bit_identical_on_dataset_schema(self):
        real = load_dataset("walmart_amazon", scale=0.02, seed=4)
        entities = list(real.table_a) + list(real.table_b)
        encoder = EntityEncoder(real.schema).fit([real.table_a, real.table_b])
        fast, slow = self._pair(encoder, TabularGANConfig(iterations=25), 8)
        fast.fit(entities)
        reference.fit(slow, entities)
        assert _same_bits(fast, slow)

    def test_nan_grad_rollback_bit_identical(self, encoder, relation):
        """Under the same ``gan.nan_grad`` plan both roll back twice and end
        in the same state."""
        config = TabularGANConfig(iterations=12, batch_size=12)
        fast, slow = self._pair(encoder, config, 3)
        for gan, fit in ((fast, TabularGAN.fit), (slow, reference.fit)):
            with inject_faults(FaultPlan(FaultSpec("gan.nan_grad", at_calls=(3, 7)))):
                fit(gan, relation)
        assert fast.health == {"nan_events": 2, "rollbacks": 2}
        assert _same_bits(fast, slow)

    def test_builds_no_tensor(self, encoder, relation):
        def forbidden(*args, **kwargs):
            raise AssertionError("the GAN built a Tensor")

        gan = TabularGAN(encoder, TabularGANConfig(iterations=5, batch_size=12))
        with mock.patch.object(Tensor, "__init__", forbidden):
            gan.fit(relation)
            gan.discriminator_score(relation[0])
            gan.generate_vector()

    def test_save_load_bit_identical(self, encoder, relation, tmp_path):
        config = TabularGANConfig(iterations=20, batch_size=12)
        gan = TabularGAN(encoder, config, seed=2)
        gan.fit(relation)
        gan.save(tmp_path)
        loaded = TabularGAN(encoder, config, seed=99).load(tmp_path)
        for entity in relation:
            assert loaded.discriminator_score(entity) == gan.discriminator_score(entity)
        for _ in range(3):
            assert loaded.generate_entity().values == gan.generate_entity().values
        assert loaded.generate_vector().tobytes() == gan.generate_vector().tobytes()
