"""Named, versioned persistence of fitted SERD synthesizers.

The registry turns a fitted :class:`~repro.core.serd.SERDSynthesizer` into
a durable, reloadable artifact.  It deliberately reuses the runtime's
checkpoint machinery rather than inventing a serialization format: a model
version directory *is* a completed checkpoint directory (every fit stage
committed) plus the real dataset it was fitted on, its background corpora
and a ``meta.json`` — so loading a version is exactly
:meth:`SERDSynthesizer.resume`, which restores the learned state *and* the
master RNG position without retraining anything.

Layout::

    <root>/<name>/v<N>/
        meta.json          config + config hash, dataset fingerprint, health
        model/             StageCheckpointer directory (s1, text, gan committed)
        dataset/           save_dataset() bundle of the fitted real dataset
        background.json    {text column: background strings}

Versions are immutable once published: :meth:`ModelRegistry.register` fits
into a hidden staging directory and publishes with one atomic
``os.replace`` rename, so a crash mid-registration never leaves a
half-visible version and concurrent readers only ever see complete ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time
import uuid
import warnings
from dataclasses import dataclass

from repro.core.config import SERDConfig
from repro.core.serd import SERDSynthesizer
from repro.runtime import faults
from repro.runtime.integrity import CorruptArtifactError
from repro.runtime.io import as_path, atomic_write_json, read_json
from repro.schema.dataset import ERDataset
from repro.schema.io import load_saved_dataset, save_dataset

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_PATTERN = re.compile(r"^v(\d+)$")


def config_hash(config: SERDConfig) -> str:
    """Stable hash of a config's canonical JSON form."""
    canonical = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def dataset_fingerprint(dataset: ERDataset) -> str:
    """Content hash of a dataset: schema, both tables, labeled pairs.

    Registering the same data twice yields the same fingerprint, so a
    registry consumer can tell whether two model versions saw the same
    input without shipping the data around.
    """
    digest = hashlib.sha256()
    digest.update(dataset.name.encode("utf-8"))
    for attr in dataset.schema:
        digest.update(f"{attr.name}:{attr.attr_type.value};".encode("utf-8"))
    for table in (dataset.table_a, dataset.table_b):
        for entity in table:
            digest.update(entity.entity_id.encode("utf-8"))
            digest.update(repr(entity.values).encode("utf-8"))
    for pair in sorted(dataset.matches):
        digest.update(f"{pair[0]},{pair[1]};".encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class ModelVersion:
    """One published (name, version) entry and its recorded metadata."""

    name: str
    version: str
    meta: dict


def _version_number(version: str) -> int:
    return int(_VERSION_PATTERN.match(version).group(1))


class ModelRegistry:
    """Filesystem-backed registry of fitted synthesizers."""

    def __init__(self, root: str | os.PathLike):
        self.root = as_path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _model_dir(self, name: str) -> "os.PathLike":
        if not _NAME_PATTERN.match(name):
            raise ValueError(
                f"invalid model name {name!r}: use letters, digits, '.', '_', '-'"
            )
        return self.root / name

    def version_dir(self, name: str, version: str):
        return self._model_dir(name) / version

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        real: ERDataset,
        config: SERDConfig | None = None,
        *,
        background: dict[str, list[str]] | None = None,
        train_gan: bool = True,
        audit: bool = True,
        audit_config: "PrivacyAuditConfig | None" = None,
        stop=None,
    ) -> ModelVersion:
        """Fit a synthesizer on ``real`` and publish it as the next version.

        The fit runs with a checkpoint directory inside a hidden staging
        dir; once every stage committed, the dataset/background/meta are
        written next to it and the whole staging dir is renamed to
        ``v<N>`` in one ``os.replace``.  Interrupting the fit (the ``stop``
        token, a crash) leaves only a ``.staging-*`` directory that
        :meth:`register` runs simply ignore.

        Unless ``audit=False``, publishing also runs the privacy attack
        battery (:func:`repro.privacy.report.build_privacy_report`) against
        the freshly fitted model and seals the outcome as
        ``privacy_report.json`` inside the version directory; a compact
        summary rides in ``meta.json`` under ``"privacy"``.  The audit runs
        *after* the fit checkpoints commit, so the audit sample it draws
        consumes RNG state that a later ``load()`` + ``synthesize()`` never
        sees — and because ``load()`` restores the post-fit RNG position,
        ``repro privacy-audit --check`` can regenerate the identical report
        from the stored seed.
        """
        from repro.privacy.report import build_privacy_report, summarize_report

        config = config or SERDConfig()
        model_dir = as_path(self._model_dir(name))
        model_dir.mkdir(parents=True, exist_ok=True)
        staging = model_dir / f".staging-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        try:
            synthesizer = SERDSynthesizer(config)
            synthesizer.fit(
                real,
                background,
                train_gan=train_gan,
                checkpoint_dir=staging / "model",
                stop=stop,
            )
            save_dataset(real, staging / "dataset")
            atomic_write_json(
                staging / "background.json", synthesizer._background
            )
            privacy_summary = None
            if audit:
                report = build_privacy_report(
                    synthesizer, real, seed=config.seed, config=audit_config
                )
                atomic_write_json(
                    staging / "privacy_report.json", report, indent=2
                )
                privacy_summary = summarize_report(report)
            meta = {
                "name": name,
                "created_unix": time.time(),
                "config": config.to_dict(),
                "config_hash": config_hash(config),
                "train_gan": bool(train_gan),
                "dataset": {
                    "name": real.name,
                    "fingerprint": dataset_fingerprint(real),
                    "n_a": len(real.table_a),
                    "n_b": len(real.table_b),
                    "n_matches": len(real.matches),
                },
                "health": synthesizer.health.to_dict(),
                "offline_seconds": synthesizer.offline_seconds,
                "privacy": privacy_summary,
            }
            # Publish: claim the next free version number.  A concurrent
            # registration of the same name can race us to it — renaming
            # onto an existing version directory fails (the target is a
            # non-empty dir), in which case we recompute and try again.
            for _ in range(100):
                version = f"v{self._next_version_number(name)}"
                meta["version"] = version
                atomic_write_json(staging / "meta.json", meta, indent=2)
                try:
                    faults.maybe_disk_fault("registry.publish")
                    os.replace(staging, model_dir / version)
                    break
                except OSError:
                    if not (model_dir / version).exists():
                        raise
            else:  # pragma: no cover - 100 simultaneous registrations
                raise RuntimeError(f"could not claim a version slot for {name!r}")
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return ModelVersion(name=name, version=version, meta=meta)

    def _next_version_number(self, name: str) -> int:
        # Counted from directory names, not readable metas: a version whose
        # meta was quarantined still owns its number, and handing that
        # number out again would collide with the left-behind directory.
        taken = self._version_names(name)
        return (_version_number(taken[-1]) + 1) if taken else 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and _NAME_PATTERN.match(p.name)
        )

    def _version_names(self, name: str) -> list[str]:
        """The ``v<N>`` directory names of ``name``, oldest first.

        A directory listing only: no meta is read, so a name may belong to
        a version whose meta is corrupt or missing.
        """
        model_dir = as_path(self._model_dir(name))
        if not model_dir.is_dir():
            return []
        return sorted(
            (
                child.name
                for child in model_dir.iterdir()
                if _VERSION_PATTERN.match(child.name) and child.is_dir()
            ),
            key=_version_number,
        )

    def _read_version(self, name: str, version: str) -> ModelVersion | None:
        """The published entry at ``<name>/<version>``, reading one meta.

        ``None`` when the directory holds no meta (unpublished leftovers
        are invisible) or its meta fails verification.  A corrupt meta is
        quarantined by :func:`read_json`, so the version drops out of every
        later lookup instead of poisoning each ``/models`` and ``load()``.
        """
        meta_path = as_path(self.version_dir(name, version)) / "meta.json"
        try:
            meta = read_json(meta_path, what=f"model meta for {name}/{version}")
        except FileNotFoundError:
            return None
        except CorruptArtifactError:
            warnings.warn(
                f"model meta for {name}/{version} corrupt; "
                "version quarantined and skipped",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return ModelVersion(name=name, version=version, meta=meta)

    def versions(self, name: str) -> list[ModelVersion]:
        """Published versions of ``name``, oldest first (staging ignored).

        Reads and verifies every version's meta; lookups of one version go
        through :meth:`get` or :meth:`latest`, which do not.
        """
        found = []
        for version in self._version_names(name):
            entry = self._read_version(name, version)
            if entry is not None:
                found.append(entry)
        return found

    def latest(self, name: str) -> ModelVersion:
        """The newest version whose meta verifies.

        Walks the version directories newest first, so an intact newest
        version costs one meta read; corrupt ones are quarantined, warned
        about and skipped, falling back to the previous version.
        """
        for version in reversed(self._version_names(name)):
            entry = self._read_version(name, version)
            if entry is not None:
                return entry
        raise KeyError(
            f"no model named {name!r} in registry at {self.root} "
            f"(known: {self.names() or 'none'})"
        )

    def get(self, name: str, version: str | None = None) -> ModelVersion:
        """``name`` at ``version`` (default: :meth:`latest`).

        Reads and verifies only that version's meta, so the cost of a
        lookup does not grow with the number of published versions.
        """
        if version is None:
            return self.latest(name)
        # ``version`` may come straight from a request body: anything but a
        # well-formed ``v<N>`` string is unknown, never a path to read.
        well_formed = isinstance(version, str) and _VERSION_PATTERN.match(version)
        entry = self._read_version(name, version) if well_formed else None
        if entry is None:
            raise KeyError(
                f"model {name!r} has no version {version!r} "
                f"(known: {self._version_names(name)})"
            )
        return entry

    def list_models(self) -> list[dict]:
        """Flat metadata rows for ``GET /models``."""
        rows = []
        for name in self.names():
            for entry in self.versions(name):
                meta = dict(entry.meta)
                meta.setdefault("name", name)
                meta.setdefault("version", entry.version)
                rows.append(meta)
        return rows

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(
        self, name: str, version: str | None = None
    ) -> tuple[SERDSynthesizer, ModelVersion]:
        """Rebuild the fitted synthesizer for ``name``/``version``.

        Goes through :meth:`SERDSynthesizer.resume` against the version's
        committed checkpoint directory: every fit stage is restored (GMMs,
        text backends, GAN weights, the post-fit RNG position), nothing is
        retrained, and a subsequent :meth:`synthesize` behaves exactly as
        it would have in the registering process.
        """
        entry = self.get(name, version)
        version_dir = as_path(self.version_dir(name, entry.version))
        real = load_saved_dataset(version_dir / "dataset")
        background_payload = read_json(
            version_dir / "background.json",
            what=f"background corpora for {name}/{entry.version}",
        )
        background = {k: list(v) for k, v in background_payload.items()} or None
        synthesizer = SERDSynthesizer.resume(
            version_dir / "model", real, background
        )
        return synthesizer, entry
