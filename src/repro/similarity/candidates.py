"""Token-blocking candidate generation.

Classic ER blocking: index entities by the tokens (and character q-grams) of
their string attributes; only pairs sharing at least one key are candidates.
Pairs sharing nothing have (near-)zero string similarity, so any pair the S3
posterior could label matching should be a candidate; the recall tests pin
that.  S3 labeling itself scores all cross pairs.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from repro.schema.entity import Entity, Relation
from repro.schema.types import Schema


class TokenBlocker:
    """Inverted index over word tokens of the string-like columns.

    Parameters
    ----------
    schema:
        The aligned schema; string-like columns (text + categorical) supply
        blocking keys.
    min_token_length:
        Tokens shorter than this are skipped (stop-symbol noise).
    max_block_size:
        Keys indexing more than this many entities on one side are dropped
        (stop-word blocks would otherwise produce quadratic candidates).
    """

    def __init__(
        self,
        schema: Schema,
        min_token_length: int = 2,
        max_block_size: int = 200,
    ):
        self.schema = schema
        self.min_token_length = min_token_length
        self.max_block_size = max_block_size
        self._string_indices = [
            i for i, attr in enumerate(schema) if attr.attr_type.is_string_like
        ]
        if not self._string_indices:
            raise ValueError("token blocking needs at least one string-like column")

    def keys_of(self, entity: Entity) -> set[str]:
        """The blocking keys of one entity."""
        keys: set[str] = set()
        for index in self._string_indices:
            value = entity.values[index]
            if value is None:
                continue
            for token in str(value).lower().split():
                if len(token) >= self.min_token_length:
                    keys.add(token)
        return keys

    def index(self, entities: Iterable[Entity]) -> dict[str, list[Entity]]:
        """Build ``{key: entities}``, dropping oversized blocks."""
        blocks: dict[str, list[Entity]] = defaultdict(list)
        for entity in entities:
            for key in self.keys_of(entity):
                blocks[key].append(entity)
        return {
            key: members
            for key, members in blocks.items()
            if len(members) <= self.max_block_size
        }

    def candidate_pairs(
        self, table_a: Relation, table_b: Relation
    ) -> list[tuple[Entity, Entity]]:
        """All cross pairs sharing at least one blocking key.

        Returned in first-seen order, each pair exactly once.
        """
        index_b = self.index(table_b)
        seen: set[tuple[str, str]] = set()
        pairs: list[tuple[Entity, Entity]] = []
        for entity_a in table_a:
            # keys_of returns a set; iterate it sorted so first-seen pair
            # order (and everything downstream that truncates or stable-
            # sorts candidates) is identical across processes regardless
            # of PYTHONHASHSEED.
            for key in sorted(self.keys_of(entity_a)):
                for entity_b in index_b.get(key, ()):
                    pair_ids = (entity_a.entity_id, entity_b.entity_id)
                    if pair_ids in seen:
                        continue
                    seen.add(pair_ids)
                    pairs.append((entity_a, entity_b))
        return pairs

    def recall_against(
        self, pairs: Iterable[tuple[Entity, Entity]]
    ) -> float:
        """Fraction of given pairs that share at least one blocking key.

        Used to validate that blocking keeps (essentially) every true match.
        """
        pairs = list(pairs)
        if not pairs:
            return 1.0
        kept = sum(
            1 for a, b in pairs if self.keys_of(a) & self.keys_of(b)
        )
        return kept / len(pairs)


class QGramBlocker(TokenBlocker):
    """Blocking on character q-grams instead of word tokens.

    More forgiving of typos (a misspelled word still shares most q-grams)
    at the cost of larger candidate sets.
    """

    def __init__(
        self,
        schema: Schema,
        q: int = 4,
        max_block_size: int = 200,
    ):
        super().__init__(schema, min_token_length=1, max_block_size=max_block_size)
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        self.q = q

    def keys_of(self, entity: Entity) -> set[str]:
        keys: set[str] = set()
        for index in self._string_indices:
            if entity.values[index] is None:
                continue
            # Entity.qgrams memoizes per (attr_index, q) and lowercases/
            # stringifies exactly like ngram.qgrams, so blocking shares the
            # same cached gram sets as the similarity substrate.
            keys.update(entity.qgrams(index, self.q))
        return keys
