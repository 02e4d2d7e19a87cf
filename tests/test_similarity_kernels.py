"""Tests for the vectorized similarity-kernel layer."""

from unittest import mock

import numpy as np
import pytest

from repro.schema import Entity, Relation, make_schema
from repro.similarity import kernels, vector
from repro.similarity.vector import KERNEL_MIN_VECTORS, SimilarityModel

from tests.reference import similarity as reference


@pytest.fixture
def model(paper_tables):
    table_a, table_b = paper_tables
    return SimilarityModel.from_relations(table_a, table_b)


class TestTokenVocabulary:
    def test_ids_are_stable_and_sorted(self):
        vocab = kernels.TokenVocabulary()
        first = vocab.encode(frozenset({"abc", "bcd"}))
        second = vocab.encode(frozenset({"bcd", "cde"}))
        assert list(first) == sorted(first)
        assert len(vocab) == 3
        # Re-encoding the same set returns the cached array.
        assert vocab.encode(frozenset({"abc", "bcd"})) is first
        # Previously assigned ids never move.
        assert set(first) & set(second)  # "bcd" shared

    def test_empty_set(self):
        vocab = kernels.TokenVocabulary()
        assert len(vocab.encode(frozenset())) == 0


class TestProfiles:
    def test_build_profile_shapes(self, model, paper_tables):
        table_a, _ = paper_tables
        profile = model.profile(table_a)
        assert profile.n == len(table_a)
        assert len(profile.columns) == len(model.schema)
        string_col = profile.columns[0]
        assert isinstance(string_col, kernels.StringColumnProfile)
        assert string_col.indptr[-1] == len(string_col.indices)
        numeric_col = profile.columns[3]
        assert isinstance(numeric_col, kernels.NumericColumnProfile)
        assert numeric_col.values.dtype == np.float64

    def test_profile_cached_on_relation(self, model, paper_tables):
        table_a, _ = paper_tables
        assert model.profile(table_a) is model.profile(table_a)

    def test_profile_invalidated_on_mutation(self, model, paper_tables, paper_schema):
        table_a, _ = paper_tables
        before = model.profile(table_a)
        table_a.add(Entity("a9", paper_schema, ["new title", "someone", "VLDB", 2000]))
        after = model.profile(table_a)
        assert after is not before
        assert after.n == before.n + 1

    def test_two_models_do_not_collide(self, paper_tables):
        table_a, table_b = paper_tables
        model_1 = SimilarityModel.from_relations(table_a, table_b)
        model_2 = SimilarityModel.from_relations(table_a, table_b, qgram=2)
        profile_1 = model_1.profile(table_a)
        profile_2 = model_2.profile(table_a)
        assert profile_1 is not profile_2
        assert model_1.profile(table_a) is profile_1

    def test_missing_values_encoded(self, paper_schema):
        model = SimilarityModel(paper_schema, ranges={"year": (1990.0, 2000.0)})
        entity = Entity("x", paper_schema, [None, "a", None, None])
        profile = model.profile_entities([entity])
        assert profile.columns[0].sizes[0] == 0  # missing text -> empty set
        assert np.isnan(profile.columns[3].values[0])


class TestKernelsMatchScalar:
    def test_cross_block_full(self, model, paper_tables):
        table_a, table_b = paper_tables
        sims = kernels.cross_block(model.profile(table_a), model.profile(table_b))
        for i, a in enumerate(table_a):
            for j, b in enumerate(table_b):
                np.testing.assert_array_equal(sims[i, j], model.vector(a, b))

    def test_cross_block_row_slice(self, model, paper_tables):
        table_a, table_b = paper_tables
        profile_a, profile_b = model.profile(table_a), model.profile(table_b)
        full = kernels.cross_block(profile_a, profile_b)
        part = kernels.cross_block(profile_a, profile_b, rows=slice(1, 3))
        np.testing.assert_array_equal(part, full[1:3])

    def test_iter_cross_blocks_covers_everything(self, model, paper_tables):
        table_a, table_b = paper_tables
        profile_a, profile_b = model.profile(table_a), model.profile(table_b)
        full = kernels.cross_block(profile_a, profile_b)
        tiles = list(kernels.iter_cross_blocks(profile_a, profile_b, max_cells=2))
        stitched = np.concatenate([tile for _, _, tile in tiles], axis=0)
        np.testing.assert_array_equal(stitched, full)
        assert tiles[0][0] == 0 and tiles[-1][1] == len(table_a)

    def test_one_vs_many(self, model, paper_tables):
        table_a, table_b = paper_tables
        profile_b = model.profile(table_b)
        got = kernels.one_vs_many(profile_b, table_a["a1"])
        want = np.vstack([model.vector(table_a["a1"], b) for b in table_b])
        np.testing.assert_array_equal(got, want)

    def test_pairs(self, model, paper_tables):
        table_a, table_b = paper_tables
        profile_a, profile_b = model.profile(table_a), model.profile(table_b)
        idx_a = np.array([0, 0, 2, 1])
        idx_b = np.array([1, 0, 2, 1])
        got = kernels.pairs(profile_a, profile_b, idx_a, idx_b)
        want = np.vstack(
            [model.vector(table_a[i], table_b[j]) for i, j in zip(idx_a, idx_b)]
        )
        np.testing.assert_array_equal(got, want)

    def test_pairs_empty(self, model, paper_tables):
        table_a, table_b = paper_tables
        got = kernels.pairs(model.profile(table_a), model.profile(table_b), [], [])
        assert got.shape == (0, 4)

    def test_pairs_shape_mismatch(self, model, paper_tables):
        table_a, table_b = paper_tables
        with pytest.raises(ValueError, match="shape"):
            kernels.pairs(model.profile(table_a), model.profile(table_b), [0], [0, 1])

    def test_empty_vs_empty_and_missing_conventions(self, paper_schema):
        model = SimilarityModel(paper_schema, ranges={"year": (1990.0, 2000.0)})
        both_missing = Entity("x", paper_schema, [None, "ab", "v", None])
        one_missing = Entity("y", paper_schema, [None, "cd", "v", 1995])
        profile = model.profile_entities([both_missing, one_missing])
        sims = kernels.cross_block(profile, profile)
        # text col: empty vs empty = 1.0
        assert sims[0, 1, 0] == 1.0
        # numeric: both missing = 1.0, one missing = 0.0
        assert sims[0, 0, 3] == 1.0
        assert sims[0, 1, 3] == 0.0

    def test_degenerate_numeric_range(self, paper_schema):
        model = SimilarityModel(paper_schema, ranges={"year": (2000.0, 2000.0)})
        a = Entity("a", paper_schema, ["t", "u", "v", 2000])
        b = Entity("b", paper_schema, ["t", "u", "v", 1999])
        profile = model.profile_entities([a, b])
        sims = kernels.cross_block(profile, profile)
        assert sims[0, 0, 3] == 1.0  # equal values under zero span
        assert sims[0, 1, 3] == 0.0  # different values under zero span


class TestModelDispatch:
    def test_vectors_kernel_equals_scalar(self, model, paper_tables):
        table_a, table_b = paper_tables
        grid = [(a, b) for a in table_a for b in table_b]
        pairs = grid * (KERNEL_MIN_VECTORS // len(grid) + 1)  # above cutoff
        np.testing.assert_array_equal(
            model.vectors(pairs), model.vectors_scalar(pairs)
        )

    def test_vectors_kernel_equals_scalar_at_64_pairs(
        self, model, paper_tables, monkeypatch
    ):
        """A /label-sized batch forced onto the kernel path."""
        table_a, table_b = paper_tables
        grid = [(a, b) for a in table_a for b in table_b]
        pairs = (grid * 8)[:64]
        monkeypatch.setattr(vector, "KERNEL_MIN_VECTORS", 1)
        with mock.patch.object(kernels, "pairs", wraps=kernels.pairs) as spy:
            got = model.vectors(pairs)
        assert spy.called
        np.testing.assert_array_equal(got, model.vectors_scalar(pairs))

    def test_one_vs_many_kernel_equals_scalar(self, model, paper_tables):
        table_a, table_b = paper_tables
        others = list(table_b) * 10  # above cutoff
        got = model.one_vs_many(table_a["a1"], others)
        want = model.vectors_scalar((table_a["a1"], o) for o in others)
        np.testing.assert_array_equal(got, want)

    def test_pairs_for_ids_equals_scalar(self, model, paper_tables):
        table_a, table_b = paper_tables
        ids = [(a.entity_id, b.entity_id) for a in table_a for b in table_b] * 3
        got = model.pairs_for_ids(table_a, table_b, ids)
        want = model.vectors_scalar((table_a[x], table_b[y]) for x, y in ids)
        np.testing.assert_array_equal(got, want)

    def test_scalar_below_size_crossover(self, model, paper_tables):
        table_a, table_b = paper_tables
        pairs = [(a, b) for a in table_a for b in table_b]
        assert len(pairs) < KERNEL_MIN_VECTORS  # the scalar dispatch
        np.testing.assert_array_equal(
            model.vectors(pairs), model.vectors_scalar(pairs)
        )


class TestLabelAllPairsPaths:
    @pytest.fixture
    def fitted(self, tiny_restaurant, rng):
        from repro.distributions.mixture import PairDistribution

        dataset = tiny_restaurant
        model = SimilarityModel.from_relations(dataset.table_a, dataset.table_b)
        x_pos = model.pairs_for_ids(dataset.table_a, dataset.table_b, dataset.matches)
        negatives = dataset.sample_non_matches(3 * len(dataset.matches), rng)
        x_neg = model.pairs_for_ids(dataset.table_a, dataset.table_b, negatives)
        o_real = PairDistribution.fit(x_pos, x_neg, rng, max_components=2)
        return dataset, model, o_real

    def test_dense_kernel_path_equals_scalar(self, fitted):
        from repro.core.labeling import label_all_pairs

        dataset, model, o_real = fitted
        known = set(dataset.matches[:5])
        kernel = label_all_pairs(
            dataset.table_a, dataset.table_b, known, o_real, model,
        )
        scalar = reference.label_all_pairs(
            dataset.table_a, dataset.table_b, known, o_real, model,
        )
        assert kernel == scalar

    def test_max_matches_cap_identical(self, fitted):
        from repro.core.labeling import label_all_pairs

        dataset, model, o_real = fitted
        kernel = label_all_pairs(
            dataset.table_a, dataset.table_b, set(), o_real, model,
            max_matches=7,
        )
        scalar = reference.label_all_pairs(
            dataset.table_a, dataset.table_b, set(), o_real, model,
            max_matches=7,
        )
        assert kernel == scalar


class TestFromRelationsValidation:
    def test_misaligned_types_rejected(self, paper_tables):
        table_a, _ = paper_tables
        other_schema = make_schema(
            {"title": "text", "authors": "text", "venue": "categorical",
             "year": "text"},
            name="bad",
        )
        table_b = Relation(
            "bad", other_schema,
            [Entity("b1", other_schema, ["t", "a", "v", "not a year"])],
        )
        with pytest.raises(ValueError, match="schema mismatch at column 3"):
            SimilarityModel.from_relations(table_a, table_b)

    def test_wrong_width_rejected(self, paper_tables):
        table_a, _ = paper_tables
        narrow = make_schema({"title": "text"}, name="narrow")
        table_b = Relation("narrow", narrow, [Entity("b1", narrow, ["t"])])
        with pytest.raises(ValueError, match="not aligned"):
            SimilarityModel.from_relations(table_a, table_b)

    def test_positionally_aligned_renamed_columns_accepted(self, paper_tables):
        table_a, _ = paper_tables
        renamed = make_schema(
            {"name": "text", "writers": "text", "where": "categorical",
             "yr": "numeric"},
            name="renamed",
        )
        table_b = Relation(
            "renamed", renamed,
            [Entity("b1", renamed, ["a title", "someone", "VLDB", 2002])],
        )
        model = SimilarityModel.from_relations(table_a, table_b)
        # Ranges span both sides despite the B-side name difference.
        assert model.ranges["year"] == (1999.0, 2003.0)
