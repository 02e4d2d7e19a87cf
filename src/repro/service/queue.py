"""Durable on-disk job queue with atomic, lease-based claims.

Every piece of queue state lives in files, written with the runtime's
atomic I/O, so the queue survives any process dying at any instant:

- ``jobs/<id>.json`` — the job record (status, parameters, attempts,
  timestamps, result pointers).  Only the submitter and the current claim
  holder write it.
- ``claims/<id>`` — the claim: which worker owns the job and when its
  lease expires.  Created with ``O_CREAT | O_EXCL`` so exactly one worker
  wins; renewed in place (atomic replace) by the owner's heartbeat.
- ``events.jsonl`` — append-only audit log (submitted, claimed, reclaimed,
  heartbeats are elided, completed, failed, released, revoked,
  dead_lettered, dlq_requeued).
- ``results/<id>/`` — the job's working directory: its S2 checkpoint and,
  on completion, the synthesized dataset bundle + health report.
- ``dlq/<id>/forensics.json`` — the dead-letter forensics bundle written
  when a job exhausts its attempt budget: the job record at death, its
  full event history, the last error, and pointers to whatever checkpoint
  and health state the attempts left behind (see
  :mod:`repro.service.dlq`).

Submissions may carry an *idempotency key*: the job id is then derived
from the key and the record is created with an atomic create-if-absent, so
a client that retries ``POST /jobs`` after a timeout can never enqueue the
same work twice — the retry observes the first submission's record.

A note on clocks: lease expiry (``expires_unix``) is deliberately
*wall-clock* time because it is compared across processes and machines —
``time.monotonic`` has no cross-process meaning.  Leases therefore assume
loosely synchronized clocks and tolerate skew up to the lease length;
in-process deadline math (client waits, backoff, the stall watchdog)
uses the monotonic clock instead.  Every wall-clock read in this module
goes through :func:`_now`, which carries the ``clock.skew`` fault site so
tests can bias one process's clock and prove the tolerance boundary:
skew below the lease length never steals a live lease, skew beyond it
does (and the old owner's next heartbeat raises :class:`ClaimLost` —
exactly-once completion survives either way).

Crash recovery needs no janitor process: a claim whose lease expired *is*
the crash signal.  :meth:`JobQueue.claim` treats such jobs as claimable
and steals the stale claim with an atomic ``os.rename`` to a tombstone —
two workers may race the steal, but ``rename`` succeeds for exactly one of
them, so the claim stays exclusive.  Because the dead worker's S2 progress
checkpoint is still in ``results/<id>/checkpoint``, the reclaiming worker
resumes the job bit-identically instead of starting over.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import asdict, dataclass, field

from repro.runtime import faults, integrity, resources
from repro.runtime.integrity import CorruptArtifactError
from repro.runtime.io import as_path, atomic_write_json, read_json


def _now() -> float:
    """Wall-clock time as this process perceives it.

    The ``clock.skew`` fault site adds its payload (seconds, may be
    negative) to every read, simulating a machine whose clock drifts from
    its peers' — the adversary the lease-tolerance note above is about.
    The NaN default payload is treated as zero skew.
    """
    skew = faults.corrupt("clock.skew", 0.0)
    try:
        skew = float(skew)
    except (TypeError, ValueError):
        skew = 0.0
    if skew != skew:  # NaN (the FaultSpec default payload)
        skew = 0.0
    return time.time() + skew


PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_STATUSES = (PENDING, RUNNING, DONE, FAILED)


@dataclass
class Job:
    """One synthesis job record (the JSON in ``jobs/<id>.json``).

    ``kind`` distinguishes ordinary synthesis jobs from the sharded
    protocol's records: a ``"synthesize"`` job with ``shards > 1`` is a
    *coordinator* job (its claimer plans the shards and fans out), and a
    ``"shard"`` job is one shard's S2 loop, pointing back at its
    coordinator via ``parent``.  Shard jobs are claimable by any worker —
    that is the whole point — and their ids derive from
    ``"<parent>:shard<k>"`` idempotency keys, so a restarted coordinator
    re-submitting its fan-out can never duplicate a shard.
    """

    id: str
    model: str
    version: str | None = None
    n_a: int | None = None
    n_b: int | None = None
    seed: int | None = None
    status: str = PENDING
    submitted_unix: float = 0.0
    started_unix: float | None = None
    finished_unix: float | None = None
    attempts: int = 0
    max_attempts: int = 3
    worker: str | None = None
    error: str | None = None
    result: dict = field(default_factory=dict)
    idempotency_key: str | None = None
    kind: str = "synthesize"
    parent: str | None = None
    shard_index: int | None = None
    shards: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        return cls(**{k: payload.get(k) for k in cls.__dataclass_fields__
                      if k in payload})


class ClaimLost(RuntimeError):
    """A worker touched a job it no longer owns (lease expired + stolen)."""


class JobQueue:
    """Filesystem job queue shared by the API server and N workers."""

    def __init__(self, root: str | os.PathLike):
        self.root = as_path(root)
        self.jobs_dir = self.root / "jobs"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.dlq_dir = self.root / "dlq"
        for directory in (
            self.jobs_dir, self.claims_dir, self.results_dir, self.dlq_dir
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def _job_path(self, job_id: str):
        return self.jobs_dir / f"{job_id}.json"

    def _claim_path(self, job_id: str):
        return self.claims_dir / job_id

    def result_dir(self, job_id: str):
        path = self.results_dir / job_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _write(self, job: Job) -> None:
        atomic_write_json(self._job_path(job.id), job.to_dict(), indent=2)

    def get(self, job_id: str) -> Job:
        path = self._job_path(job_id)
        if not path.exists():
            raise KeyError(f"no job {job_id!r} in queue at {self.root}")
        return Job.from_dict(read_json(path, what=f"job record {job_id!r}"))

    def jobs(self) -> list[Job]:
        """All job records, submission order.

        Sorted by submission timestamp (ids derived from idempotency keys
        carry no timestamp, so the record field is authoritative), with the
        id as a deterministic tie-break.
        """
        records = []
        for path in self.jobs_dir.glob("*.json"):
            try:
                records.append(
                    Job.from_dict(read_json(path, what="job record"))
                )
            except CorruptArtifactError:
                # read_json quarantined the record (renamed to
                # <name>.corrupt-<digest>), so the scan self-heals: the
                # garbage is skipped now and gone on the next pass.
                integrity.count_event("queue_records_skipped_corrupt")
                continue
            except (ValueError, KeyError, TypeError):  # foreign file
                continue
        return sorted(records, key=lambda job: (job.submitted_unix, job.id))

    def depth(self) -> dict:
        """Queue composition for ``/stats`` (claimable counts expired leases)."""
        now = _now()
        counts = {status: 0 for status in _STATUSES}
        claimable = 0
        for job in self.jobs():
            counts[job.status] = counts.get(job.status, 0) + 1
            if self._claimable(job, now):
                claimable += 1
        counts["claimable"] = claimable
        # Failed means attempt-budget-exhausted, i.e. dead-lettered; the
        # alias makes the DLQ depth visible by name in /stats.
        counts["dlq"] = counts[FAILED]
        return counts

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        model: str,
        *,
        version: str | None = None,
        n_a: int | None = None,
        n_b: int | None = None,
        seed: int | None = None,
        max_attempts: int = 3,
        idempotency_key: str | None = None,
        shards: int = 1,
        kind: str = "synthesize",
        parent: str | None = None,
        shard_index: int | None = None,
    ) -> Job:
        """Enqueue a job; returns the (possibly pre-existing) record.

        With an ``idempotency_key`` the job id is derived from the key and
        the record is created atomically only if absent: a retried
        submission of the same key returns the original record (marked with
        a transient ``duplicate=True`` attribute) instead of enqueueing the
        work twice.

        ``shards > 1`` submits a coordinator job; the claiming worker fans
        it out into ``shard`` sub-jobs (each submitted through here with
        ``kind="shard"`` and a ``"<parent>:shard<k>"`` idempotency key).
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        now = _now()
        if idempotency_key:
            digest = hashlib.sha256(idempotency_key.encode("utf-8")).hexdigest()
            job_id = f"jk{digest[:20]}"
        else:
            job_id = f"j{int(now * 1000):013d}-{uuid.uuid4().hex[:6]}"
        job = Job(
            id=job_id,
            model=model,
            version=version,
            n_a=n_a,
            n_b=n_b,
            seed=seed,
            submitted_unix=now,
            max_attempts=max_attempts,
            idempotency_key=idempotency_key,
            kind=kind,
            parent=parent,
            shard_index=shard_index,
            shards=int(shards),
        )
        job.duplicate = False
        if idempotency_key:
            if not self._create_if_absent(job):
                existing = self.get(job.id)
                existing.duplicate = True
                return existing
        else:
            self._write(job)
        self._log("submitted", job.id, model=model)
        return job

    def _create_if_absent(self, job: Job) -> bool:
        """Publish a job record only if its id is unclaimed (atomic).

        Same ``os.link``-from-staged trick as claim acquisition: the record
        appears with its full content in one step, and exactly one of any
        number of racing submitters wins.

        New-work admission is where the disk low-water mark bites: below
        it, submission raises :class:`~repro.runtime.resources.ResourceExhausted`
        (surfaced by the API as a retryable 503) while jobs already in
        flight keep draining — shedding *new* load is how a service gets
        back above the water line.
        """
        resources.preflight(self.jobs_dir, what="job submission")
        path = self._job_path(job.id)
        staged = self.jobs_dir / f".submit-{job.id}-{uuid.uuid4().hex[:8]}.tmp"
        descriptor = os.open(staged, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                payload = json.dumps(job.to_dict(), indent=2).encode("utf-8")
                faults.maybe_disk_fault(
                    "queue.submit.write",
                    partial=lambda: handle.write(payload[: len(payload) // 2]),
                )
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            try:
                os.link(staged, path)
            except FileExistsError:
                return False
            return True
        finally:
            os.unlink(staged)

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------
    def _read_claim(self, job_id: str) -> dict | None:
        try:
            return json.loads(self._claim_path(job_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def _claimable(self, job: Job, now: float) -> bool:
        if job.status == PENDING:
            return True
        if job.status != RUNNING:
            return False
        claim = self._read_claim(job.id)
        # A running job with no claim or an expired lease is a crashed
        # worker's job; it can be reclaimed.
        return claim is None or float(claim.get("expires_unix", 0)) <= now

    def _try_acquire(self, job_id: str, worker: str, lease_seconds: float) -> bool:
        """Create/steal the claim file; True when this worker now owns it.

        The claim must appear *with its content* in one atomic step: a
        claim file that exists but is still empty would read as corrupt,
        i.e. stale, and a racing worker would steal a lease its owner just
        won.  ``os.link`` from a fully written (and fsynced) private file
        gives exactly that — it fails with ``FileExistsError`` when the
        claim already exists, like ``O_EXCL``, but the file it publishes is
        never observable half-written.
        """
        path = self._claim_path(job_id)
        staged = self.claims_dir / f".acquire-{job_id}-{uuid.uuid4().hex[:8]}"
        descriptor = os.open(staged, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                payload = json.dumps(
                    {"worker": worker, "expires_unix": _now() + lease_seconds}
                ).encode("utf-8")
                faults.maybe_disk_fault(
                    "queue.claim.write",
                    partial=lambda: handle.write(payload[: len(payload) // 2]),
                )
                handle.write(payload)
                handle.flush()
                faults.maybe_disk_fault("queue.claim.fsync")
                os.fsync(handle.fileno())
            for _ in range(2):  # fresh attempt, then one steal attempt
                try:
                    os.link(staged, path)
                except FileExistsError:
                    claim = self._read_claim(job_id)
                    if claim is not None and float(claim.get("expires_unix", 0)) > _now():
                        return False  # live lease; someone else owns the job
                    # Stale claim: steal it.  os.rename of the same source
                    # by two racing workers succeeds for exactly one — the
                    # loser gets FileNotFoundError and backs off to the
                    # link attempt, where only one of them can win again.
                    tombstone = self.claims_dir / f".stale-{job_id}-{uuid.uuid4().hex[:8]}"
                    try:
                        faults.maybe_disk_fault("queue.claim.steal")
                        os.rename(path, tombstone)
                    except FileNotFoundError:
                        continue
                    try:
                        os.unlink(tombstone)
                    except OSError:  # pragma: no cover - best-effort cleanup
                        pass
                    continue
                return True
            return False
        finally:
            os.unlink(staged)

    def claim(self, worker: str, *, lease_seconds: float = 30.0) -> Job | None:
        """Exclusively claim the oldest claimable job, or ``None``."""
        for job in self.jobs():
            claimed = self.claim_job(job, worker, lease_seconds=lease_seconds)
            if claimed is not None:
                return claimed
        return None

    def claim_job(
        self, job: Job, worker: str, *, lease_seconds: float = 30.0
    ) -> Job | None:
        """Claim the job of a record the caller already read, or ``None``.

        The one claim transition.  :meth:`claim` runs it over the queue
        scan; the sharded coordinator runs it over its own shard sub-jobs
        to execute them inline while it waits — it must never pull
        arbitrary work off the queue (that could deadlock two coordinators
        against each other), but racing the pool's workers for its *own*
        children is safe: the claim file picks exactly one winner either
        way.  Winning transitions the record to ``running`` and bumps its
        attempt counter; a reclaim of a crashed worker's job is logged as
        ``reclaimed`` so operators can see crash recovery happening.
        """
        if not self._claimable(job, _now()):
            return None
        if not self._try_acquire(job.id, worker, lease_seconds):
            return None
        # Re-read under ownership: the record may have advanced since the
        # caller read it (e.g. the previous owner completed it right before
        # its lease lapsed).
        job = self.get(job.id)
        if job.status not in (PENDING, RUNNING):
            self._release_claim(job.id)
            return None
        reclaimed = job.status == RUNNING
        if reclaimed and job.attempts >= job.max_attempts:
            # Crash-looping job: every attempt died without reporting.
            job.error = job.error or (
                f"worker crashed {job.attempts} time(s); attempt budget exhausted"
            )
            self._dead_letter(job, worker=worker, reason="crash_loop")
            self._release_claim(job.id)
            return None
        job.status = RUNNING
        job.worker = worker
        job.attempts += 1
        job.started_unix = _now()
        self._write(job)
        self._log(
            "reclaimed" if reclaimed else "claimed",
            job.id, worker=worker, attempt=job.attempts,
        )
        return job

    def children(self, parent_id: str) -> list[Job]:
        """A coordinator's shard sub-jobs, ordered by shard index."""
        return sorted(
            (job for job in self.jobs() if job.parent == parent_id),
            key=lambda job: (job.shard_index or 0, job.id),
        )

    def heartbeat(self, job_id: str, worker: str, *, lease_seconds: float = 30.0) -> None:
        """Renew the owner's lease; raises :class:`ClaimLost` if stolen."""
        claim = self._read_claim(job_id)
        if claim is None or claim.get("worker") != worker:
            raise ClaimLost(
                f"worker {worker!r} no longer holds the claim on {job_id!r}"
            )
        atomic_write_json(
            self._claim_path(job_id),
            {"worker": worker, "expires_unix": _now() + lease_seconds},
        )

    def _release_claim(self, job_id: str) -> None:
        try:
            os.unlink(self._claim_path(job_id))
        except FileNotFoundError:
            pass

    def revoke(self, job_id: str, *, reason: str = "revoked") -> bool:
        """Forcibly break the current claim (the stall watchdog's lever).

        The claim is atomically renamed away, so the owner's next heartbeat
        — and any later attempt to complete/fail/release — raises
        :class:`ClaimLost`, while the job immediately becomes reclaimable
        by a healthy worker.  Returns ``False`` when there was no claim to
        revoke.
        """
        tombstone = self.claims_dir / f".revoked-{job_id}-{uuid.uuid4().hex[:8]}"
        try:
            os.rename(self._claim_path(job_id), tombstone)
        except FileNotFoundError:
            return False
        try:
            os.unlink(tombstone)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        self._log("revoked", job_id, reason=reason)
        return True

    # ------------------------------------------------------------------
    # Completion paths (claim holder only)
    # ------------------------------------------------------------------
    def _require_ownership(self, job_id: str, worker: str) -> None:
        """A worker whose lease was stolen must not clobber the new owner.

        Ownership means *currently holding the claim file*.  A missing
        claim is also a loss: it means another worker stole the lease and
        already finished (completion removes the claim) or a watchdog
        revoked it — in either case this worker's result must be discarded,
        or it would resurrect/overwrite a job someone else owns the
        outcome of.
        """
        claim = self._read_claim(job_id)
        if claim is None:
            raise ClaimLost(
                f"worker {worker!r} no longer holds a claim on {job_id!r} "
                "(lease revoked or the job was finished by another owner); "
                "its result is discarded"
            )
        if claim.get("worker") != worker:
            raise ClaimLost(
                f"worker {worker!r} lost the claim on {job_id!r} to "
                f"{claim.get('worker')!r}; its result is discarded"
            )

    def complete(self, job_id: str, worker: str, result: dict) -> Job:
        self._require_ownership(job_id, worker)
        job = self.get(job_id)
        job.status = DONE
        job.worker = worker
        job.error = None
        job.finished_unix = _now()
        job.result = dict(result)
        self._write(job)
        self._release_claim(job_id)
        self._log("completed", job_id, worker=worker)
        return job

    def fail(self, job_id: str, worker: str, error: str) -> Job:
        """Record a failure; requeue while attempts remain, else dead-letter."""
        self._require_ownership(job_id, worker)
        job = self.get(job_id)
        job.worker = worker
        job.error = str(error)
        if job.attempts < job.max_attempts:
            job.status = PENDING
            self._write(job)
            self._log("requeued", job_id, worker=worker, error=str(error)[:500])
        else:
            job = self._dead_letter(job, worker=worker, reason="attempts_exhausted")
        self._release_claim(job_id)
        return job

    def release(self, job_id: str, worker: str) -> Job:
        """Graceful give-back (worker draining): job returns to pending.

        The attempt the worker started does not count against the budget —
        a drain is not a failure.
        """
        self._require_ownership(job_id, worker)
        job = self.get(job_id)
        if job.status != RUNNING:
            # Terminal or already-requeued record: releasing must never
            # regress it (e.g. resurrect a completed job back to pending).
            raise ClaimLost(
                f"job {job_id!r} is {job.status!r}; worker {worker!r} has "
                "nothing to release"
            )
        job.status = PENDING
        job.worker = None
        job.attempts = max(0, job.attempts - 1)
        self._write(job)
        self._release_claim(job_id)
        self._log("released", job_id, worker=worker)
        return job

    # ------------------------------------------------------------------
    # Dead-letter queue
    # ------------------------------------------------------------------
    def _dead_letter(self, job: Job, *, worker: str | None, reason: str) -> Job:
        """Terminal failure: record forensics, then flip the job to failed.

        Order matters for crash safety: the forensics bundle is written
        *before* the status flip (the commit point), so a crash in between
        leaves a pending bundle next to a still-running record — harmless —
        never a failed job with no forensics.
        """
        forensics = {
            "reason": reason,
            "worker": worker,
            "error": job.error,
            "died_unix": _now(),
            "job": job.to_dict(),
            "attempts": job.attempts,
            "max_attempts": job.max_attempts,
            "history": [e for e in self.events() if e.get("job") == job.id],
            "checkpoint": self._checkpoint_pointer(job.id),
            "health": self._last_health(job.id),
        }
        atomic_write_json(
            self.dlq_dir / job.id / "forensics.json", forensics, indent=2
        )
        job.status = FAILED
        job.finished_unix = _now()
        self._write(job)
        self._log(
            "dead_lettered", job.id, worker=worker, reason=reason,
            error=(job.error or "")[:500],
        )
        return job

    def _checkpoint_pointer(self, job_id: str) -> dict:
        """Where (and whether) the job's S2 progress checkpoint survives."""
        directory = self.results_dir / job_id / "checkpoint"
        manifest = directory / "manifest.json"
        pointer = {"dir": str(directory), "exists": manifest.exists()}
        if pointer["exists"]:
            try:
                pointer["stages"] = sorted(
                    read_json(manifest, what="checkpoint manifest")
                    .get("stages", {})
                )
            except (ValueError, OSError):
                pointer["stages"] = None  # torn/corrupt manifest: note it
        return pointer

    def _last_health(self, job_id: str) -> dict | None:
        path = self.results_dir / job_id / "health.json"
        if not path.exists():
            return None
        try:
            return read_json(path, what="health report")
        except (ValueError, OSError):
            return None

    def dead_letters(self) -> list[Job]:
        """Jobs that exhausted their attempt budget (the DLQ, oldest first)."""
        return [job for job in self.jobs() if job.status == FAILED]

    def forensics(self, job_id: str) -> dict:
        """The forensics bundle recorded when ``job_id`` was dead-lettered."""
        path = self.dlq_dir / job_id / "forensics.json"
        if not path.exists():
            raise KeyError(
                f"no forensics bundle for job {job_id!r} (is it dead-lettered?)"
            )
        return read_json(path, what=f"forensics bundle for {job_id!r}")

    def requeue(self, job_id: str) -> Job:
        """Return a dead-lettered job to pending with a fresh attempt budget.

        The forensics bundle is left in place for the audit trail; the
        job's surviving S2 checkpoint (if any) means the retried run
        resumes rather than starting over.
        """
        job = self.get(job_id)
        if job.status != FAILED:
            raise ValueError(
                f"job {job_id!r} is {job.status!r}, not dead-lettered"
            )
        job.status = PENDING
        job.worker = None
        job.error = None
        job.attempts = 0
        job.finished_unix = None
        self._write(job)
        self._log("dlq_requeued", job_id)
        return job

    def reset_for_rerun(self, job_id: str, *, reason: str) -> Job:
        """Return a finished-but-untrustworthy job to pending.

        The corrupt-shard-result recovery path: the coordinator found a
        child marked ``done`` whose ``shard_result.json`` failed integrity
        verification (already quarantined), so the "completion" cannot be
        trusted and the shard must re-run.  Jobs that already burned their
        attempt budget dead-letter instead — a shard whose results rot on
        every attempt must not requeue forever.
        """
        job = self.get(job_id)
        if job.status == FAILED:
            return job  # already dead-lettered; nothing to reset
        if job.attempts >= job.max_attempts:
            job.error = (
                f"result corrupt after {job.attempts} attempt(s): {reason}"
            )
            job = self._dead_letter(job, worker=None, reason="corrupt_result")
            self._release_claim(job_id)
            return job
        job.status = PENDING
        job.worker = None
        job.error = None
        job.result = {}
        job.finished_unix = None
        self._write(job)
        self._release_claim(job_id)
        self._log("requeued_corrupt", job_id, reason=str(reason)[:500])
        return job

    # ------------------------------------------------------------------
    # Audit log
    # ------------------------------------------------------------------
    def _log(self, event: str, job_id: str, **fields) -> None:
        record = {"unix": _now(), "event": event, "job": job_id, **fields}
        line = json.dumps(record) + "\n"
        # O_APPEND single-write appends are atomic for short lines; the log
        # is advisory (never read back by the queue itself).
        with open(self.root / "events.jsonl", "a", encoding="utf-8") as handle:
            handle.write(line)

    def events(self) -> list[dict]:
        path = self.root / "events.jsonl"
        if not path.exists():
            return []
        records = []
        for line in path.read_text().splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:  # torn tail line after a crash
                continue
        return records
