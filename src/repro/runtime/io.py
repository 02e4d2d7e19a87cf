"""Crash-safe file primitives shared by the runtime and the exporters.

Every durable artifact in the pipeline (checkpoints, manifests, the
distribution export, health reports) is written with the same discipline:
serialize into a temporary file in the *target directory*, flush + fsync,
then ``os.replace`` onto the final name.  ``os.replace`` is atomic on POSIX
and Windows, so a reader never observes a truncated file — it sees either
the previous version or the new one.

The write/fsync/replace steps carry fault-injection sites (``io.write``,
``io.fsync``, ``io.rename`` — see :mod:`repro.runtime.faults`) so the
disk-fault suite can prove the atomicity claim: a failure at any step
leaves the target untouched and the temp file cleaned up.

On top of atomicity, JSON-object artifacts are sealed with a SHA-256
integrity envelope on write and verified on read (see
:mod:`repro.runtime.integrity`): :func:`read_json` raises a typed
:class:`~repro.runtime.integrity.CorruptArtifactError` and quarantines the
file (rename to ``<name>.corrupt-<shortdigest>``) when the bytes read back
are not the bytes written — whether the JSON is garbage or valid-but-wrong.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from repro.runtime import faults, integrity, resources
from repro.runtime.integrity import CorruptArtifactError


def as_path(path: str | os.PathLike) -> pathlib.Path:
    """Normalize a ``str | Path`` argument at an API boundary.

    Every public entry point that takes a filesystem location (checkpoint
    directories, export paths, registry/queue roots) funnels through this
    so callers can pass plain strings, ``~``-prefixed strings or
    ``pathlib.Path`` objects interchangeably.
    """
    return pathlib.Path(path).expanduser()


def atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> pathlib.Path:
    """Write ``payload`` to ``path`` atomically (tmp file + ``os.replace``).

    When a resource governor is installed (see
    :mod:`repro.runtime.resources`), the write is preflighted against the
    disk low-water mark: refusing a commit *before* any bytes move is
    strictly safer than relying on atomicity to survive mid-write ENOSPC,
    and the typed :class:`~repro.runtime.resources.ResourceExhausted` it
    raises routes to checkpoint-and-release instead of the DLQ.
    """
    path = as_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    resources.preflight(path.parent, what=f"write of {path.name}")
    descriptor, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            faults.maybe_disk_fault(
                "io.write", partial=lambda: handle.write(payload[: len(payload) // 2])
            )
            handle.write(payload)
            handle.flush()
            faults.maybe_disk_fault("io.fsync")
            os.fsync(handle.fileno())
        faults.maybe_disk_fault("io.rename")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: str | os.PathLike, text: str) -> pathlib.Path:
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(
    path: str | os.PathLike, payload, *, indent: int | None = None
) -> pathlib.Path:
    """Atomically write ``payload`` as JSON, sealed with an integrity envelope.

    Only JSON objects (dicts) are sealed — lists/scalars are written as-is.
    """
    if isinstance(payload, dict):
        payload = integrity.seal(payload)
    return atomic_write_text(path, json.dumps(payload, indent=indent))


def read_json(
    path: str | os.PathLike, *, what: str = "artifact", quarantine: bool = True
) -> dict:
    """Read a JSON artifact, verifying its integrity envelope when present.

    A truncated / half-written file (possible from foreign writers despite
    atomic writes on our side) or a digest mismatch (bit rot, tampering,
    valid-but-wrong JSON) raises :class:`CorruptArtifactError` — a
    ``ValueError`` subclass, so existing skip-corrupt-record handlers keep
    working — and the file is renamed into quarantine
    (``<name>.corrupt-<shortdigest>``) so it cannot be re-read as truth.
    The envelope key is stripped before the payload is returned; artifacts
    written before envelopes existed pass through unverified.
    """
    path = as_path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} not found at {path}") from None
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError as error:
        quarantined = integrity.quarantine_artifact(path) if quarantine else None
        raise CorruptArtifactError(
            path,
            f"truncated or malformed JSON "
            f"(line {error.lineno}, column {error.colno}): {error.msg}",
            what=what,
            quarantined_to=quarantined,
        ) from None
    if isinstance(parsed, dict) and integrity.ENVELOPE_KEY in parsed:
        envelope = parsed.pop(integrity.ENVELOPE_KEY)
        ok, reason = integrity.check_envelope(parsed, envelope)
        if not ok:
            quarantined = (
                integrity.quarantine_artifact(path) if quarantine else None
            )
            raise CorruptArtifactError(
                path, reason, what=what, quarantined_to=quarantined
            ) from None
        integrity.count_event("artifacts_verified")
    return parsed
