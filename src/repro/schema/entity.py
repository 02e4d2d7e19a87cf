"""Entities and relations (tables).

An :class:`Entity` is a record with one value per schema attribute; a
:class:`Relation` is an ordered collection of entities with unique ids.
Entities cache derived artifacts (q-gram profiles) that the similarity
substrate needs repeatedly when computing all-pairs similarity vectors.

:func:`qgrams` is the one q-gram tokenizer of the package.  It lives here,
below :mod:`repro.similarity`, so that :meth:`Entity.qgrams` and
:func:`repro.similarity.ngram.qgrams` (a re-export) share one process-wide
memo: an entity built from strings the similarity substrate has already
seen costs a dict lookup per column, not a re-tokenization.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from repro.schema.types import AttributeType, Schema

Value = Any  # str | float | int | None — per-attribute payload

_GRAM_CACHE: dict[tuple[int, str], frozenset[str]] = {}
# Bound memory on pathological workloads (every string unique forever):
# one entry is a key plus a small frozenset, so ~128k entries stay in the
# tens of MB. Overflow clears wholesale — the working set re-warms in one
# pass and wholesale is cheaper than tracking recency per hit.
_GRAM_CACHE_MAX = 1 << 17


def _tokenize(text: str, q: int) -> frozenset[str]:
    text = text.lower()
    if not text:
        return frozenset()
    if len(text) < q:
        return frozenset((text,))
    return frozenset(text[i : i + q] for i in range(len(text) - q + 1))


def qgrams(text: str, q: int = 3) -> frozenset[str]:
    """The set of character q-grams of ``text`` (case-insensitive).

    Strings shorter than ``q`` contribute themselves as a single gram, so a
    non-empty short string is still similar to itself:

    >>> sorted(qgrams("abcd", 3))
    ['abc', 'bcd']
    >>> sorted(qgrams("ab", 3))
    ['ab']

    Memoized: the S2 loop scores every candidate string against the same
    reference pools, re-deriving the same gram sets millions of times per
    run.  ``qgrams`` is a pure function, so the memo is observationally
    invisible.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    key = (q, text)
    grams = _GRAM_CACHE.get(key)
    if grams is None:
        if len(_GRAM_CACHE) >= _GRAM_CACHE_MAX:
            _GRAM_CACHE.clear()
        _GRAM_CACHE[key] = grams = _tokenize(text, q)
    return grams


class Entity:
    """A single record of a relation.

    Values are stored positionally, aligned with the schema.  ``entity[name]``
    and ``entity[index]`` both work.  Values may be ``None`` (missing).
    """

    __slots__ = ("entity_id", "schema", "values", "_qgram_cache")

    def __init__(self, entity_id: str, schema: Schema, values: Iterable[Value]):
        self.entity_id = entity_id
        self.schema = schema
        self.values = tuple(values)
        if len(self.values) != len(schema):
            raise ValueError(
                f"entity {entity_id!r} has {len(self.values)} values for a "
                f"{len(schema)}-attribute schema"
            )
        # Maps (attribute index, q) -> frozenset of q-grams; filled lazily by
        # the similarity substrate.  A plain dict keeps Entity lightweight.
        self._qgram_cache: dict[tuple[int, int], frozenset[str]] = {}

    def __getitem__(self, key: int | str) -> Value:
        if isinstance(key, str):
            return self.values[self.schema.index_of(key)]
        return self.values[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entity):
            return NotImplemented
        return self.entity_id == other.entity_id and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.entity_id, self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self.schema.names, self.values))
        return f"Entity({self.entity_id!r}, {pairs})"

    def qgrams(self, attr_index: int, q: int) -> frozenset[str]:
        """Cached q-gram set of the string value at ``attr_index``.

        Missing values yield an empty set.  Non-string values are stringified,
        matching how string similarity treats them.  The set is the one
        :func:`qgrams` memoizes for the same text, so it is shared with every
        other entity and similarity call that saw that string.
        """
        key = (attr_index, q)
        cached = self._qgram_cache.get(key)
        if cached is None:
            value = self.values[attr_index]
            text = "" if value is None else str(value)
            cached = qgrams(text, q)
            self._qgram_cache[key] = cached
        return cached

    def replace(self, entity_id: str | None = None, **updates: Value) -> "Entity":
        """A copy of this entity with some attribute values replaced."""
        values = list(self.values)
        for name, value in updates.items():
            values[self.schema.index_of(name)] = value
        return Entity(entity_id or self.entity_id, self.schema, values)

    def to_dict(self) -> dict[str, Value]:
        """``{attribute name: value}`` view, including the id."""
        record: dict[str, Value] = {"id": self.entity_id}
        record.update(zip(self.schema.names, self.values))
        return record


class Relation:
    """An ordered table of entities sharing one schema."""

    def __init__(self, name: str, schema: Schema, entities: Iterable[Entity] = ()):
        self.name = name
        self.schema = schema
        self._entities: list[Entity] = []
        self._by_id: dict[str, Entity] = {}
        # Derived artifacts (similarity-kernel column profiles) cached per
        # consumer key; any mutation of the relation invalidates them.
        self._profile_cache: dict = {}
        for entity in entities:
            self.add(entity)

    def add(self, entity: Entity) -> None:
        """Append ``entity``; ids must be unique within the relation.

        Cached column profiles are *not* discarded: appending is the only
        mutation a relation supports, so a cached profile stays valid for
        the rows it covers and consumers extend it with just the new rows
        (see :meth:`repro.similarity.vector.SimilarityModel.profile`) —
        growing a relation entity by entity costs O(new rows) of profiling,
        not a full rebuild per append.
        """
        if entity.schema is not self.schema and entity.schema != self.schema:
            raise ValueError(f"entity {entity.entity_id!r} has a different schema")
        if entity.entity_id in self._by_id:
            raise ValueError(f"duplicate entity id {entity.entity_id!r} in {self.name!r}")
        self._entities.append(entity)
        self._by_id[entity.entity_id] = entity

    @property
    def profile_cache(self) -> dict:
        """Mutable cache for derived per-relation artifacts.

        :meth:`repro.similarity.vector.SimilarityModel.profile` stores its
        column profiles here.  Relations are append-only, so cached entries
        are never silently wrong — merely behind — and each consumer
        reconciles by comparing its entry's row count with ``len(self)``
        and extending over the appended tail.
        """
        return self._profile_cache

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._entities)

    def __getitem__(self, key: int | str) -> Entity:
        if isinstance(key, str):
            return self._by_id[key]
        return self._entities[key]

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    @property
    def entities(self) -> tuple[Entity, ...]:
        return tuple(self._entities)

    def column(self, name: str) -> list[Value]:
        """All values of one column, in row order."""
        index = self.schema.index_of(name)
        return [entity.values[index] for entity in self._entities]

    def distinct_values(self, name: str) -> list[Value]:
        """Distinct non-missing values of one column, in first-seen order."""
        seen: dict[Value, None] = {}
        for value in self.column(name):
            if value is not None and value not in seen:
                seen[value] = None
        return list(seen)

    def numeric_range(self, name: str) -> tuple[float, float]:
        """(min, max) of a numeric or date column, ignoring missing values.

        Raises ``ValueError`` when the column has no non-missing values.
        """
        attr = self.schema[name]
        if attr.attr_type not in (AttributeType.NUMERIC, AttributeType.DATE):
            raise ValueError(f"column {name!r} is {attr.attr_type}, not numeric/date")
        values = [float(v) for v in self.column(name) if v is not None]
        if not values:
            raise ValueError(f"column {name!r} has no non-missing values")
        return min(values), max(values)

    def subset(self, entity_ids: Iterable[str], name: str | None = None) -> "Relation":
        """A new relation holding only the given ids (in the given order)."""
        return Relation(
            name or self.name,
            self.schema,
            (self._by_id[eid] for eid in entity_ids),
        )
