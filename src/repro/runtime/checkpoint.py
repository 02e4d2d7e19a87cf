"""Durable stage checkpoints for the SERD pipeline.

A checkpoint directory holds one JSON payload per completed stage plus a
``manifest.json`` naming which stages committed.  The commit protocol makes
interruption at *any* point safe:

1. binary blobs (model weights, transformer directories) are written into
   the stage's subdirectory;
2. the stage payload is written atomically (tmp + ``os.replace``);
3. the manifest is rewritten atomically, now listing the stage.

Step 3 is the commit point — a crash before it leaves stale files that the
next run simply overwrites, never a half-trusted stage.  Each payload also
carries the master RNG state captured *after* the stage ran, so a resumed
run that skips the stage continues the random stream exactly where the
original run left it; that is what makes interrupt-then-resume bit-identical
to an uninterrupted run.

Corruption recovery (post-write bit rot, foreign writers): every payload
and the manifest carry SHA-256 integrity envelopes.  The manifest is
double-written (``manifest.json`` + ``manifest.json.bak``) so a corrupt
primary degrades to the backup instead of a dead checkpoint directory; a
corrupt *stage payload* is quarantined and the stage silently falls back
to re-running (:meth:`StageCheckpointer.load_or_none`) — losing one
stage's work, never trusting garbage.
"""

from __future__ import annotations

import os
import pathlib
import warnings

import numpy as np

from repro.runtime.integrity import CorruptArtifactError
from repro.runtime.io import as_path, atomic_write_json, read_json

MANIFEST = "manifest.json"
MANIFEST_BACKUP = "manifest.json.bak"
_VERSION = 1


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a numpy Generator's stream position."""
    return rng.bit_generator.state


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Rewind/advance ``rng`` to a snapshot taken with :func:`rng_state`."""
    rng.bit_generator.state = state


class StageCheckpointer:
    """Manages one checkpoint directory of named, committed stages."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = as_path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest = self._read_manifest()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _read_manifest(self) -> dict:
        path = self.directory / MANIFEST
        backup = self.directory / MANIFEST_BACKUP
        if not path.exists() and not backup.exists():
            return {"version": _VERSION, "stages": {}, "meta": {}}
        manifest = None
        try:
            manifest = read_json(path, what="checkpoint manifest")
        except FileNotFoundError:
            pass
        except CorruptArtifactError as error:
            # read_json already quarantined the primary; degrade to the
            # backup written by the last successful commit.
            warnings.warn(
                f"checkpoint manifest corrupt ({error.reason}); "
                f"falling back to {MANIFEST_BACKUP}",
                RuntimeWarning,
                stacklevel=2,
            )
        if manifest is None:
            try:
                manifest = read_json(backup, what="checkpoint manifest backup")
            except FileNotFoundError:
                return {"version": _VERSION, "stages": {}, "meta": {}}
            except CorruptArtifactError as error:
                warnings.warn(
                    f"checkpoint manifest backup also corrupt "
                    f"({error.reason}); starting this checkpoint directory "
                    "fresh — committed stages will re-run",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return {"version": _VERSION, "stages": {}, "meta": {}}
        if manifest.get("version") != _VERSION:
            raise ValueError(
                f"checkpoint manifest at {path} has version "
                f"{manifest.get('version')!r}; this runtime reads version "
                f"{_VERSION}. Either re-run with the runtime that wrote it, "
                "or quarantine the directory (move it aside, or run "
                "'repro verify-artifacts' after deleting manifest.json and "
                "manifest.json.bak) and re-run the pipeline from scratch"
            )
        manifest.setdefault("stages", {})
        manifest.setdefault("meta", {})
        return manifest

    def _write_manifest(self) -> None:
        # Double-write: the primary is the commit point, the backup is the
        # degraded-read fallback.  Ordering matters — the backup only ever
        # lags, so falling back can lose the newest commit (that stage
        # re-runs) but never resurrect a cleared one as *newer* state.
        atomic_write_json(self.directory / MANIFEST, self._manifest, indent=2)
        atomic_write_json(
            self.directory / MANIFEST_BACKUP, self._manifest, indent=2
        )

    # ------------------------------------------------------------------
    # Run metadata (config, dataset identity, ...)
    # ------------------------------------------------------------------
    def set_meta(self, key: str, value) -> None:
        self._manifest["meta"][key] = value
        self._write_manifest()

    def get_meta(self, key: str, default=None):
        return self._manifest["meta"].get(key, default)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _payload_path(self, stage: str) -> pathlib.Path:
        return self.directory / f"stage_{stage}.json"

    def stage_dir(self, stage: str, *, create: bool = True) -> pathlib.Path:
        """Directory for a stage's binary blobs (written before commit)."""
        path = self.directory / f"stage_{stage}"
        if create:
            path.mkdir(parents=True, exist_ok=True)
        return path

    def has(self, stage: str) -> bool:
        """True when ``stage`` committed AND its payload file is readable."""
        if stage not in self._manifest["stages"]:
            return False
        return self._payload_path(stage).exists()

    def load(self, stage: str) -> dict:
        if not self.has(stage):
            raise KeyError(f"no committed checkpoint for stage {stage!r}")
        return read_json(
            self._payload_path(stage), what=f"checkpoint for stage {stage!r}"
        )

    def load_or_none(self, stage: str) -> dict | None:
        """Load a committed stage, degrading corruption to a re-run.

        Returns ``None`` when the stage never committed *or* its payload
        fails integrity verification — in the corrupt case the payload is
        quarantined (by ``read_json``) and the stage is dropped from the
        manifest, so callers fall back to re-running the stage exactly as
        if it had never completed.  This is the standard consumer-side
        recovery policy for checkpoint payloads: lose one stage's work,
        never trust garbage.
        """
        if not self.has(stage):
            return None
        try:
            return read_json(
                self._payload_path(stage), what=f"checkpoint for stage {stage!r}"
            )
        except CorruptArtifactError as error:
            warnings.warn(
                f"checkpoint for stage {stage!r} is corrupt and was "
                f"quarantined ({error.reason}); the stage will re-run",
                RuntimeWarning,
                stacklevel=2,
            )
            self._manifest["stages"].pop(stage, None)
            self._write_manifest()
            return None

    def commit(self, stage: str, payload: dict) -> None:
        """Durably record ``stage`` as complete with ``payload``."""
        atomic_write_json(self._payload_path(stage), payload)
        self._manifest["stages"][stage] = {"payload": self._payload_path(stage).name}
        self._write_manifest()

    def clear(self, stage: str) -> None:
        """Forget a stage (used when a progress checkpoint is consumed)."""
        self._manifest["stages"].pop(stage, None)
        self._write_manifest()
        path = self._payload_path(stage)
        if path.exists():
            path.unlink()

    def completed_stages(self) -> list[str]:
        return [s for s in self._manifest["stages"] if self.has(s)]
