"""Tests for repro.schema.entity."""

import pytest

from repro.schema import Entity, Relation, make_schema
from repro.similarity import ngram


@pytest.fixture
def schema():
    return make_schema({"name": "text", "city": "categorical", "year": "numeric"})


class TestEntity:
    def test_value_access_by_name_and_index(self, schema):
        entity = Entity("e1", schema, ["cafe rio", "austin", 1999])
        assert entity["name"] == "cafe rio"
        assert entity[2] == 1999

    def test_wrong_arity_rejected(self, schema):
        with pytest.raises(ValueError, match="values"):
            Entity("e1", schema, ["only-one"])

    def test_equality_and_hash(self, schema):
        a = Entity("e1", schema, ["x", "y", 1])
        b = Entity("e1", schema, ["x", "y", 1])
        c = Entity("e2", schema, ["x", "y", 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_qgram_cache(self, schema):
        entity = Entity("e1", schema, ["cafe rio", "austin", 1999])
        grams = entity.qgrams(0, 3)
        assert "caf" in grams
        # Cached object identity on repeat calls.
        assert entity.qgrams(0, 3) is grams

    def test_qgrams_shared_with_similarity_memo(self, schema):
        """One tokenizer, one memo: an entity's gram set is the very object
        ``similarity.ngram.qgrams`` returns for the same text, whichever
        of the two saw the string first."""
        seen_first = ngram.qgrams("Shared Grams Cafe", 3)
        entity = Entity("e1", schema, ["Shared Grams Cafe", "Fresh City Name", 1999])
        assert entity.qgrams(0, 3) is seen_first
        assert entity.qgrams(1, 3) is ngram.qgrams("Fresh City Name", 3)
        assert entity.qgrams(2, 3) is ngram.qgrams("1999", 3)

    def test_qgrams_of_missing_value_empty(self, schema):
        entity = Entity("e1", schema, [None, "austin", 1999])
        assert entity.qgrams(0, 3) == frozenset()

    def test_qgrams_of_numeric_stringified(self, schema):
        entity = Entity("e1", schema, ["x", "austin", 1999])
        assert "199" in entity.qgrams(2, 3)

    def test_replace(self, schema):
        entity = Entity("e1", schema, ["a", "b", 1])
        updated = entity.replace(year=2)
        assert updated["year"] == 2
        assert updated.entity_id == "e1"
        assert entity["year"] == 1  # original untouched

    def test_to_dict(self, schema):
        entity = Entity("e1", schema, ["a", "b", 1])
        assert entity.to_dict() == {"id": "e1", "name": "a", "city": "b", "year": 1}


class TestRelation:
    def test_add_and_lookup(self, schema):
        relation = Relation("r", schema)
        relation.add(Entity("e1", schema, ["a", "b", 1]))
        assert len(relation) == 1
        assert relation["e1"]["name"] == "a"
        assert relation[0].entity_id == "e1"
        assert "e1" in relation

    def test_duplicate_id_rejected(self, schema):
        relation = Relation("r", schema)
        relation.add(Entity("e1", schema, ["a", "b", 1]))
        with pytest.raises(ValueError, match="duplicate"):
            relation.add(Entity("e1", schema, ["c", "d", 2]))

    def test_column_and_distinct(self, schema):
        relation = Relation("r", schema, [
            Entity("e1", schema, ["a", "x", 1]),
            Entity("e2", schema, ["b", "x", 2]),
            Entity("e3", schema, ["c", None, 3]),
        ])
        assert relation.column("city") == ["x", "x", None]
        assert relation.distinct_values("city") == ["x"]

    def test_numeric_range(self, schema):
        relation = Relation("r", schema, [
            Entity("e1", schema, ["a", "x", 5]),
            Entity("e2", schema, ["b", "x", 15]),
        ])
        assert relation.numeric_range("year") == (5.0, 15.0)

    def test_numeric_range_on_text_column_rejected(self, schema):
        relation = Relation("r", schema, [Entity("e1", schema, ["a", "x", 5])])
        with pytest.raises(ValueError):
            relation.numeric_range("name")

    def test_numeric_range_empty_column_rejected(self, schema):
        relation = Relation("r", schema, [Entity("e1", schema, ["a", "x", None])])
        with pytest.raises(ValueError):
            relation.numeric_range("year")

    def test_subset_preserves_order(self, schema):
        relation = Relation("r", schema, [
            Entity(f"e{i}", schema, ["a", "x", i]) for i in range(5)
        ])
        sub = relation.subset(["e3", "e1"])
        assert [e.entity_id for e in sub] == ["e3", "e1"]
