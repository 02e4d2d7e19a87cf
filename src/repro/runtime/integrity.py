"""SHA-256 integrity envelopes and corruption quarantine for durable artifacts.

Atomic writes (:mod:`repro.runtime.io`) guarantee a reader never sees a
*torn* file, but nothing guaranteed the bytes read back are the bytes
written: a bit flip on disk, a foreign writer, or a buggy migration can
hand a consumer valid-but-wrong JSON that merges silently into O_syn.
This module closes that gap:

- :func:`seal` stamps a JSON-object payload with an ``"integrity"``
  envelope — ``{"algo": "sha256", "digest": <hex>, "version": 1}`` — where
  the digest covers the canonical serialization (sorted keys, compact
  separators) of the payload *minus* the envelope key itself.
- :func:`check_envelope` recomputes the digest on read.  A mismatch, an
  unknown algorithm, or malformed JSON is a :class:`CorruptArtifactError`
  (a ``ValueError`` subclass, so pre-existing ``except ValueError``
  recovery paths keep working) and the file is **quarantined**: renamed to
  ``<name>.corrupt-<shortdigest>`` so the garbage can never be re-read as
  truth, while the evidence survives for forensics.
- :func:`scrub_tree` walks an artifact tree (checkpoints, queue, registry)
  offline — the engine behind ``repro verify-artifacts``.

Envelopes only ever wrap JSON *objects*; payload keys must be JSON-native
strings (true of every artifact in this repo) so the canonical form is
stable across a write/parse round-trip.  Artifacts written before this
layer existed carry no envelope and still read fine — they count as
"unverified", not corrupt.

Sealing can be disabled (``REPRO_INTEGRITY=0`` or the :func:`disabled`
context manager) to measure checksum overhead; verification of an envelope
that is *present* always runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from contextlib import contextmanager

from repro.runtime.counters import Counters

ENVELOPE_KEY = "integrity"
ENVELOPE_ALGO = "sha256"
ENVELOPE_VERSION = 1
QUARANTINE_MARK = ".corrupt-"


class CorruptArtifactError(ValueError):
    """A durable artifact failed integrity verification (or JSON parsing).

    Subclasses :class:`ValueError` deliberately: every pre-envelope
    skip-corrupt-record path in the queue, stats bus and checkpoint
    pointer already catches ``ValueError``, so typed corruption rides the
    same recovery rails.  Carries the offending ``path``, the ``reason``
    and where the file was quarantined to (``None`` when quarantine was
    suppressed or failed).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        reason: str,
        *,
        what: str = "artifact",
        quarantined_to: pathlib.Path | None = None,
    ):
        self.path = pathlib.Path(path)
        self.reason = reason
        self.what = what
        self.quarantined_to = quarantined_to
        suffix = (
            f"; quarantined to {quarantined_to.name}"
            if quarantined_to is not None
            else ""
        )
        super().__init__(
            f"{what} at {path} is corrupt: {reason}{suffix} "
            "(scrub the tree with 'repro verify-artifacts')"
        )


# ----------------------------------------------------------------------
# Enable/disable switch (sealing only; verification always runs)
# ----------------------------------------------------------------------
_ENABLED = os.environ.get("REPRO_INTEGRITY", "1").lower() not in (
    "0",
    "false",
    "off",
)


def enabled() -> bool:
    """Whether new writes are sealed with an envelope."""
    return _ENABLED


@contextmanager
def disabled():
    """Temporarily write artifacts without envelopes (bench/A-B harness)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


# ----------------------------------------------------------------------
# Counters (process-local; surfaced through /stats)
# ----------------------------------------------------------------------
_COUNTERS = Counters(
    "artifacts_verified", "corrupt_artifacts_quarantined", "shards_requeued_corrupt"
)
count_event = _COUNTERS.count
counters = _COUNTERS.snapshot
reset_counters = _COUNTERS.reset


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------
def payload_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON of ``payload`` minus the envelope."""
    body = {k: v for k, v in payload.items() if k != ENVELOPE_KEY}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def seal(payload: dict) -> dict:
    """Return a copy of ``payload`` carrying a fresh integrity envelope."""
    sealed = {k: v for k, v in payload.items() if k != ENVELOPE_KEY}
    sealed[ENVELOPE_KEY] = {
        "algo": ENVELOPE_ALGO,
        "digest": payload_digest(payload),
        "version": ENVELOPE_VERSION,
    }
    return sealed


def check_envelope(body: dict, envelope) -> tuple[bool, str]:
    """Verify ``envelope`` against ``body`` (the payload minus the envelope).

    Returns ``(ok, reason)``; ``reason`` is ``""`` on success.
    """
    if not isinstance(envelope, dict):
        return False, f"integrity envelope is {type(envelope).__name__}, not object"
    algo = envelope.get("algo")
    if algo != ENVELOPE_ALGO:
        return False, f"unsupported integrity algorithm {algo!r}"
    expected = envelope.get("digest")
    actual = payload_digest(body)
    if expected != actual:
        return False, (
            f"sha256 mismatch (stored {str(expected)[:12]}…, "
            f"computed {actual[:12]}…)"
        )
    return True, ""


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------
def is_quarantined(path: str | os.PathLike) -> bool:
    return QUARANTINE_MARK in pathlib.Path(path).name


def quarantine_artifact(path: str | os.PathLike) -> pathlib.Path | None:
    """Rename a corrupt file to ``<name>.corrupt-<shortdigest>``.

    The short digest is over the corrupt *bytes*, so repeated corruption of
    the same path yields distinct quarantine files and re-quarantining the
    identical garbage is idempotent.  Returns the quarantine path, or
    ``None`` when the file vanished or the rename failed (a racing reader
    may quarantine first — that is fine, the loser's read still raises).
    """
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        raw = b""
    short = hashlib.sha256(raw).hexdigest()[:8]
    target = path.with_name(f"{path.name}{QUARANTINE_MARK}{short}")
    try:
        os.replace(path, target)
    except OSError:
        return None
    count_event("corrupt_artifacts_quarantined")
    return target


# ----------------------------------------------------------------------
# Offline scrubber (the engine behind `repro verify-artifacts`)
# ----------------------------------------------------------------------
#: Sealed reports the scrubber must *report* but never quarantine: a
#: privacy audit or fit/health report is evidence about a published model —
#: renaming it aside would destroy the very record an operator needs to
#: investigate the corruption.  (Everything else, including DLQ forensics
#: and job records, still quarantines: those have healthy fallback paths.)
PROTECTED_NAMES = frozenset({"privacy_report.json", "health.json"})


def scrub_tree(root: str | os.PathLike, *, quarantine: bool = True) -> dict:
    """Walk ``root`` verifying every ``*.json`` artifact.

    Classifies each file as ``verified`` (envelope present and correct),
    ``unverified`` (valid JSON, no envelope — pre-integrity artifacts),
    or ``corrupt`` (malformed JSON or digest mismatch).  Corrupt files are
    quarantined in place unless ``quarantine=False`` — except the sealed
    reports in :data:`PROTECTED_NAMES`, which are listed under
    ``protected_corrupt`` and always left where they are.  ``*.jsonl``
    logs are checked line-by-line (torn trailing lines are tolerated by
    their readers, so they are only counted, never quarantined).  Files
    already quarantined are skipped.  DLQ ``forensics.json`` bundles are
    summarized separately under ``dlq`` so operators can see at a glance
    whether the audit trail itself is rotting.
    """
    root = pathlib.Path(root).expanduser()
    report: dict = {
        "root": str(root),
        "checked": 0,
        "verified": 0,
        "unverified": 0,
        "corrupt": [],
        "quarantined": [],
        "protected": 0,
        "protected_corrupt": [],
        "jsonl_files": 0,
        "jsonl_torn_lines": 0,
        "already_quarantined": 0,
        "dlq": {"bundles": 0, "corrupt": 0},
    }
    if not root.exists():
        raise FileNotFoundError(f"artifact tree not found at {root}")
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        if is_quarantined(path):
            report["already_quarantined"] += 1
            continue
        if path.suffix == ".jsonl":
            report["jsonl_files"] += 1
            try:
                lines = path.read_text().splitlines()
            except OSError:
                continue
            except UnicodeDecodeError:
                # Bit rot can land mid-character; an undecodable log is
                # one torn line, not a scrub crash.
                report["jsonl_torn_lines"] += 1
                continue
            for line in lines:
                if not line.strip():
                    continue
                try:
                    json.loads(line)
                except ValueError:
                    report["jsonl_torn_lines"] += 1
            continue
        if path.suffix != ".json" and not path.name.endswith(".json.bak"):
            continue
        report["checked"] += 1
        protected = path.name in PROTECTED_NAMES
        if protected:
            report["protected"] += 1
        is_forensics = path.name == "forensics.json" and "dlq" in path.parts
        if is_forensics:
            report["dlq"]["bundles"] += 1
        reason = None
        try:
            text = path.read_text()
        except OSError:
            continue
        except UnicodeDecodeError as error:
            # Bit rot mid-character: the artifact is corrupt, not a crash.
            reason = f"undecodable bytes: {error}"
            text = None
        if text is not None:
            try:
                parsed = json.loads(text)
            except ValueError as error:
                reason = f"malformed JSON: {error}"
            else:
                if isinstance(parsed, dict) and ENVELOPE_KEY in parsed:
                    envelope = parsed.pop(ENVELOPE_KEY)
                    ok, why = check_envelope(parsed, envelope)
                    if ok:
                        report["verified"] += 1
                    else:
                        reason = why
                else:
                    report["unverified"] += 1
        if reason is not None:
            if is_forensics:
                report["dlq"]["corrupt"] += 1
            if protected:
                report["protected_corrupt"].append(
                    {"path": str(path), "reason": reason}
                )
                continue
            report["corrupt"].append({"path": str(path), "reason": reason})
            if quarantine:
                target = quarantine_artifact(path)
                if target is not None:
                    report["quarantined"].append(str(target))
    return report
