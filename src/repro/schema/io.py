"""CSV/JSON persistence for ER datasets.

A dataset directory holds::

    schema.json      column names/types + dataset metadata
    table_a.csv      id + one column per attribute
    table_b.csv      (omitted for symmetric single-table datasets)
    matches.csv      a_id,b_id
    non_matches.csv  a_id,b_id (optional explicit negatives)

This is the release format a data owner would actually publish a SERD
surrogate in.
"""

from __future__ import annotations

import csv
import hashlib
import json
import pathlib

from repro.schema.dataset import ERDataset
from repro.schema.entity import Entity, Relation
from repro.schema.types import Attribute, AttributeType, Schema


def _write_relation(path: pathlib.Path, relation: Relation) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", *relation.schema.names])
        for entity in relation:
            writer.writerow([
                entity.entity_id,
                *("" if v is None else v for v in entity.values),
            ])


def _parse_value(raw: str, attr_type: AttributeType):
    if raw == "":
        return None
    if attr_type == AttributeType.NUMERIC:
        value = float(raw)
        return int(value) if value.is_integer() else value
    if attr_type == AttributeType.DATE:
        return int(float(raw))
    return raw


def _read_relation(path: pathlib.Path, name: str, schema: Schema) -> Relation:
    relation = Relation(name, schema)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        expected = ["id", *schema.names]
        if header != expected:
            raise ValueError(f"{path.name}: header {header} != expected {expected}")
        for row in reader:
            entity_id, *raw_values = row
            values = [
                _parse_value(raw, attr.attr_type)
                for raw, attr in zip(raw_values, schema)
            ]
            relation.add(Entity(entity_id, schema, values))
    return relation


def _write_pairs(path: pathlib.Path, pairs) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a_id", "b_id"])
        writer.writerows(pairs)


def _read_pairs(path: pathlib.Path) -> list[tuple[str, str]]:
    if not path.exists():
        return []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader)  # header
        return [(a, b) for a, b in reader]


def save_dataset(dataset: ERDataset, directory: str | pathlib.Path) -> pathlib.Path:
    """Write ``dataset`` to ``directory`` (created if needed)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    symmetric = dataset.symmetric and dataset.table_a is dataset.table_b
    meta = {
        "name": dataset.name,
        "symmetric": dataset.symmetric,
        "single_table": symmetric,
        "schema": [
            {"name": attr.name, "type": attr.attr_type.value, "b_name": attr.b_name}
            for attr in dataset.schema
        ],
    }
    (directory / "schema.json").write_text(json.dumps(meta, indent=2))
    _write_relation(directory / "table_a.csv", dataset.table_a)
    if not symmetric:
        _write_relation(directory / "table_b.csv", dataset.table_b)
    _write_pairs(directory / "matches.csv", dataset.matches)
    if dataset.non_matches:
        _write_pairs(directory / "non_matches.csv", dataset.non_matches)
    return directory


def _saved_schema(meta: dict) -> Schema:
    return Schema(
        tuple(
            Attribute(
                column["name"], AttributeType(column["type"]), column.get("b_name")
            )
            for column in meta["schema"]
        ),
        name=meta["name"],
    )


# The streamed document's trailing checksum record, as emitted by
# iter_saved_dataset_json: fixed-length, so a streaming client can hold
# back exactly this many bytes and verify the digest at EOF.
DATASET_STREAM_TRAILER_PREFIX = ', "integrity": {"algo": "sha256", "digest": "'
DATASET_STREAM_TRAILER_SUFFIX = '"}}'
DATASET_STREAM_TRAILER_LEN = (
    len(DATASET_STREAM_TRAILER_PREFIX) + 64 + len(DATASET_STREAM_TRAILER_SUFFIX)
)


def iter_saved_dataset_json(
    directory: str | pathlib.Path, *, chunk_rows: int = 1024,
    integrity: bool = True,
):
    """Yield a saved dataset's JSON document as a stream of fragments.

    Produces the same document ``GET /jobs/<id>/dataset`` has always
    served — ``{"name", "schema", "table_a", "table_b", "matches",
    "non_matches"}`` — but incrementally: the CSVs are read row by row and
    at most ``chunk_rows`` rows are materialized at a time, so serving an
    n-entity dataset holds O(chunk_rows) rows in memory instead of O(n).
    Concatenating the fragments reproduces the full document exactly.

    Unless ``integrity`` is off, the final fragment is a trailing checksum
    record — ``, "integrity": {"algo": "sha256", "digest": "<64 hex>"}}`` —
    whose digest covers every byte streamed *before* it.  The document
    stays valid JSON; a streaming client holds back the fixed-length tail,
    verifies the digest, and can tell a truncated or garbled stream from a
    complete one even when the transport framing looks intact.  All fragments are ASCII
    (``json.dumps`` default), so byte offsets never split a character.
    """
    directory = pathlib.Path(directory)
    meta = json.loads((directory / "schema.json").read_text())
    schema = _saved_schema(meta)
    header = {
        "name": meta["name"],
        "schema": [
            {"name": attr.name, "type": attr.attr_type.value} for attr in schema
        ],
    }
    hasher = hashlib.sha256() if integrity else None

    def _emit(fragment: str) -> str:
        if hasher is not None:
            hasher.update(fragment.encode("utf-8"))
        return fragment

    yield _emit(json.dumps(header)[:-1])  # hold the document open: strip "}"

    def _rows(path: pathlib.Path):
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            next(reader)  # header
            for row in reader:
                entity_id, *raw_values = row
                yield {
                    "id": entity_id,
                    "values": [
                        _parse_value(raw, attr.attr_type)
                        for raw, attr in zip(raw_values, schema)
                    ],
                }

    def _pair_rows(path: pathlib.Path):
        if not path.exists():
            return
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            for a_id, b_id in reader:
                yield [a_id, b_id]

    table_b_csv = (
        directory / "table_a.csv"
        if meta.get("single_table")
        else directory / "table_b.csv"
    )
    sections = [
        ("table_a", _rows(directory / "table_a.csv")),
        ("table_b", _rows(table_b_csv)),
        ("matches", _pair_rows(directory / "matches.csv")),
        ("non_matches", _pair_rows(directory / "non_matches.csv")),
    ]
    for key, items in sections:
        yield _emit(f', "{key}": [')
        first = True
        buffer: list[str] = []
        for item in items:
            buffer.append(json.dumps(item))
            if len(buffer) >= chunk_rows:
                yield _emit(("" if first else ", ") + ", ".join(buffer))
                first = False
                buffer = []
        if buffer:
            yield _emit(("" if first else ", ") + ", ".join(buffer))
        yield _emit("]")
    if hasher is None:
        yield "}"
    else:
        # The checksum record closes the document in place of the bare
        # "}"; its fixed length is DATASET_STREAM_TRAILER_LEN.
        yield (
            DATASET_STREAM_TRAILER_PREFIX
            + hasher.hexdigest()
            + DATASET_STREAM_TRAILER_SUFFIX
        )


def load_saved_dataset(directory: str | pathlib.Path) -> ERDataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    directory = pathlib.Path(directory)
    meta = json.loads((directory / "schema.json").read_text())
    schema = Schema(
        tuple(
            Attribute(
                column["name"], AttributeType(column["type"]), column.get("b_name")
            )
            for column in meta["schema"]
        ),
        name=meta["name"],
    )
    table_a = _read_relation(directory / "table_a.csv", f"{meta['name']}_a", schema)
    if meta.get("single_table"):
        table_b = table_a
    else:
        table_b = _read_relation(
            directory / "table_b.csv", f"{meta['name']}_b", schema
        )
    return ERDataset(
        table_a,
        table_b,
        _read_pairs(directory / "matches.csv"),
        non_matches=_read_pairs(directory / "non_matches.csv"),
        name=meta["name"],
        symmetric=meta.get("symmetric", False),
    )
