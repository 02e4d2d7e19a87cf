"""Tests for token/q-gram blocking candidate generation."""

import pytest

from repro.similarity import QGramBlocker, TokenBlocker


class TestTokenBlocker:
    @pytest.fixture
    def blocker(self, paper_schema):
        return TokenBlocker(paper_schema)

    def test_keys_are_tokens_of_string_columns(self, blocker, paper_tables):
        table_a, _ = paper_tables
        keys = blocker.keys_of(table_a["a2"])
        assert "generalised" in keys
        assert "kossmann," in keys or "kossmann" in keys
        # The numeric year column contributes no keys.
        assert "1999" not in keys

    def test_matching_pairs_are_candidates(self, paper_tables, paper_schema):
        table_a, table_b = paper_tables
        blocker = TokenBlocker(paper_schema)
        pairs = blocker.candidate_pairs(table_a, table_b)
        ids = {(a.entity_id, b.entity_id) for a, b in pairs}
        assert ("a1", "b1") in ids
        assert ("a2", "b2") in ids

    def test_pairs_unique(self, paper_tables, paper_schema):
        table_a, table_b = paper_tables
        pairs = TokenBlocker(paper_schema).candidate_pairs(table_a, table_b)
        ids = [(a.entity_id, b.entity_id) for a, b in pairs]
        assert len(ids) == len(set(ids))

    def test_oversized_blocks_dropped(self, paper_schema, paper_tables):
        table_a, table_b = paper_tables
        tight = TokenBlocker(paper_schema, max_block_size=0)
        assert tight.candidate_pairs(table_a, table_b) == []

    def test_recall_on_generated_benchmark(self, tiny_dblp):
        """Every true match must survive blocking (the S3 fast-path
        soundness condition)."""
        blocker = TokenBlocker(tiny_dblp.schema)
        recall = blocker.recall_against(tiny_dblp.match_pairs())
        assert recall == 1.0

    def test_candidates_far_fewer_than_cross_product(self, tiny_dblp):
        blocker = TokenBlocker(tiny_dblp.schema, max_block_size=30)
        pairs = blocker.candidate_pairs(tiny_dblp.table_a, tiny_dblp.table_b)
        total = len(tiny_dblp.table_a) * len(tiny_dblp.table_b)
        assert 0 < len(pairs) < total

    def test_requires_string_columns(self):
        from repro.schema import make_schema

        with pytest.raises(ValueError):
            TokenBlocker(make_schema({"x": "numeric"}))

    def test_missing_values_skipped(self, paper_schema):
        from repro.schema import Entity

        entity = Entity("e", paper_schema, [None, None, None, 2000])
        assert TokenBlocker(paper_schema).keys_of(entity) == set()

    def test_recall_of_empty_pairs_is_one(self, paper_schema):
        assert TokenBlocker(paper_schema).recall_against([]) == 1.0


class TestQGramBlocker:
    def test_typo_tolerant(self, paper_schema):
        from repro.schema import Entity

        a = Entity("a", paper_schema, ["generalised hash teams", "", "v", 2000])
        b = Entity("b", paper_schema, ["generalized hash teams", "", "v", 2000])
        token = TokenBlocker(paper_schema)
        qgram = QGramBlocker(paper_schema, q=4)
        # Both share "hash"/"teams" tokens, but the q-gram keys also bridge
        # the generalised/generalized difference.
        assert len(qgram.keys_of(a) & qgram.keys_of(b)) > len(
            token.keys_of(a) & token.keys_of(b)
        )

    def test_invalid_q(self, paper_schema):
        with pytest.raises(ValueError):
            QGramBlocker(paper_schema, q=1)

    def test_recall_on_benchmark(self, tiny_dblp):
        blocker = QGramBlocker(tiny_dblp.schema, q=4, max_block_size=500)
        assert blocker.recall_against(tiny_dblp.match_pairs()) == 1.0


class TestBlockedLabeling:
    def test_blocked_s3_matches_exhaustive_s3(self, tiny_restaurant):
        """Token blocking would lose no S3 match: every pair the all-pairs
        posterior labels matching is a blocking candidate."""
        import numpy as np

        from repro.core.labeling import label_all_pairs
        from repro.distributions import PairDistribution
        from repro.similarity import SimilarityModel, TokenBlocker

        ds = tiny_restaurant
        model = SimilarityModel.from_relations(ds.table_a, ds.table_b)
        rng = np.random.default_rng(0)
        x_match = model.vectors(ds.match_pairs())
        negatives = ds.sample_non_matches(60, rng)
        x_non = model.vectors(ds.resolve(p) for p in negatives)
        dist = PairDistribution.fit(x_match, x_non, rng, max_components=2)
        labeling = PairDistribution(
            1e-3, dist.match_distribution, dist.non_match_distribution
        )

        exhaustive, _ = label_all_pairs(
            ds.table_a, ds.table_b, set(), labeling, model
        )
        blocker = TokenBlocker(ds.schema, max_block_size=500)
        candidates = {
            (a.entity_id, b.entity_id)
            for a, b in blocker.candidate_pairs(ds.table_a, ds.table_b)
        }
        assert exhaustive
        assert set(exhaustive) <= candidates
