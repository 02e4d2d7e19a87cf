"""Synthesis workers: claim jobs, run checkpointed S2, survive kills.

A :class:`Worker` is the unit of execution: it claims one job at a time
from the :class:`~repro.service.queue.JobQueue`, loads the job's model
from the :class:`~repro.service.registry.ModelRegistry` (no retraining —
the registry restores fitted state), and runs ``synthesize`` with the
job's result directory as the checkpoint directory.  That single choice
buys the whole crash story:

- the S2 loop commits a progress checkpoint every ``checkpoint_every``
  accepted entities (atomic writes, RNG position included);
- a heartbeat thread renews the job's lease while synthesis runs;
- if the worker is ``kill -9``'d, its lease expires, another worker
  reclaims the job, loads the same model, and ``synthesize`` resumes from
  the committed checkpoint — producing a dataset *bit-identical* to an
  uninterrupted run (asserted by the fault-injection suite);
- on SIGTERM the worker drains gracefully: the cancellation token makes
  ``synthesize`` commit a final checkpoint and raise
  :class:`~repro.runtime.cancellation.SynthesisInterrupted`, and the job
  is released back to pending with its progress intact;
- each job runs under a :class:`~repro.runtime.cancellation.LinkedCancellationToken`
  scoped to that job: the heartbeat thread trips it the moment the lease
  is lost, so a worker that fell behind stops burning CPU on a job that
  now belongs to someone else instead of racing the new owner to the
  finish line.

Heartbeats prove the *process* is alive, not that the *job* is making
progress — a worker wedged inside a native call keeps heartbeating
forever.  :class:`StallWatchdog` closes that gap: it fingerprints each
running job's S2 progress checkpoint and, when a fingerprint stops
advancing for ``stall_seconds``, revokes the claim so another worker can
resume from the last committed checkpoint (the stalled worker's linked
token aborts it if it ever wakes up).

:class:`WorkerPool` runs N workers as separate OS processes (synthesis is
CPU-bound; threads would fight the GIL), restarts any that die, and
SIGTERMs them all for a graceful drain on shutdown.
"""

from __future__ import annotations

import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
import uuid

import numpy as np

from repro.core.sharding import ShardRun, ShardSpec, plan_shards
from repro.runtime.cancellation import (
    CancellationToken,
    LinkedCancellationToken,
    SynthesisInterrupted,
)
from repro.runtime import integrity, resources
from repro.runtime.faults import InjectedInterrupt
from repro.runtime.resources import ResourceExhausted
from repro.runtime.integrity import CorruptArtifactError
from repro.runtime.io import atomic_write_json, read_json
from repro.schema.io import save_dataset
from repro.service.queue import DONE, FAILED, RUNNING, ClaimLost, Job, JobQueue
from repro.service.registry import ModelRegistry


class Worker:
    """One job-at-a-time synthesis worker."""

    def __init__(
        self,
        queue: JobQueue,
        registry: ModelRegistry,
        *,
        worker_id: str | None = None,
        lease_seconds: float = 30.0,
        stop: CancellationToken | None = None,
    ):
        self.queue = queue
        self.registry = registry
        self.worker_id = worker_id or f"w{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.lease_seconds = float(lease_seconds)
        self.stop = stop or CancellationToken()
        # Resource counters snapshot at claim time, so each job's result
        # reports the *delta* it caused, not the process lifetime totals.
        self._counters_at_claim: dict[str, int] = resources.counters()

    def _resource_delta(self) -> dict[str, int]:
        before = self._counters_at_claim
        return {
            name: value - before.get(name, 0)
            for name, value in resources.counters().items()
        }

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _heartbeat_loop(
        self, job_id: str, halt: threading.Event, job_stop: CancellationToken
    ) -> None:
        interval = max(0.05, self.lease_seconds / 3.0)
        while not halt.wait(interval):
            try:
                self.queue.heartbeat(
                    job_id, self.worker_id, lease_seconds=self.lease_seconds
                )
            except Exception:
                # Lease stolen (or revoked by the stall watchdog): trip the
                # job's token so synthesis aborts at its next safe point
                # instead of finishing work that now belongs to another
                # worker; ownership checks at completion reject us anyway.
                job_stop.request("lease lost")
                return

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def run_once(self) -> bool:
        """Claim and run one job; False when the queue had nothing for us."""
        try:
            job = self.queue.claim(self.worker_id, lease_seconds=self.lease_seconds)
        except ResourceExhausted:
            # Disk below the low-water mark: the claim's own record write
            # was refused.  Back off instead of crash-looping the worker —
            # admission is already shedding new load upstream.
            self.stop.wait(1.0)
            return False
        if job is None:
            return False
        self._counters_at_claim = resources.counters()
        try:
            self._run_leased(job, self.stop)
        except SynthesisInterrupted:
            pass  # drained: the job is back in the queue, progress intact
        return True

    def _run_leased(self, job: Job, parent_stop: CancellationToken) -> None:
        """Run a job we hold the lease on, and map how it ends to the queue.

        The one bracket for whole jobs and for the shards a coordinator
        runs inline: a heartbeat thread renews the lease, and the job runs
        under a token linked to ``parent_stop`` that the heartbeat also
        trips the moment the lease is lost.  A drain
        (:class:`SynthesisInterrupted`) releases the job with its progress
        checkpointed and propagates, so a coordinator releases its parent
        too.  A simulated crash (:class:`InjectedInterrupt`) propagates
        untouched: like a real ``kill -9`` it leaves the claim to expire
        and the record ``running``, burning no attempt.
        """
        halt = threading.Event()
        job_stop = LinkedCancellationToken(parent_stop)
        beater = threading.Thread(
            target=self._heartbeat_loop, args=(job.id, halt, job_stop), daemon=True
        )
        beater.start()
        try:
            self._run_job(job, job_stop)
        except SynthesisInterrupted:
            self._release(job)
            raise
        except InjectedInterrupt:
            raise
        except ClaimLost:
            # Another worker stole the lease mid-run; its result wins and
            # ours is discarded.  Nothing to record — we no longer own it.
            pass
        except ResourceExhausted:
            # Budget breach the degradation ladder could not absorb.  The
            # S2 loop committed its checkpoint right before raising, so
            # checkpoint-and-release gives the job back intact — an
            # operator problem must not burn attempt budget toward the
            # DLQ.  Back off before polling again: the pressure is ours,
            # not the job's.
            resources.count_event("jobs_released_on_exhaustion")
            self._release(job)
            self.stop.wait(1.0)
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            try:
                self.queue.fail(
                    job.id,
                    self.worker_id,
                    f"{type(error).__name__}: {error}\n{traceback.format_exc()}",
                )
            except ClaimLost:
                pass
        finally:
            halt.set()
            beater.join(timeout=2.0)

    def _release(self, job: Job) -> None:
        """Give a job back to pending; a refused release (lease already
        stolen, or the write hit the disk floor) leaves the lease to expire,
        and the job is reclaimed with its checkpoint either way."""
        try:
            self.queue.release(job.id, self.worker_id)
        except (ClaimLost, ResourceExhausted):
            pass

    def _run_job(self, job: Job, stop: CancellationToken) -> None:
        if job.kind == "shard":
            self._run_shard_job(job, stop)
        elif job.shards > 1:
            self._run_sharded_job(job, stop)
        else:
            self._run_simple_job(job, stop)

    def _load(self, job: Job):
        synthesizer, entry = self.registry.load(job.model, job.version)
        if job.seed is not None:
            # Per-job reproducibility: a fresh master stream derived from
            # the job seed.  (Resume overrides this from the progress
            # checkpoint's recorded RNG position, so reclaims stay exact.)
            synthesizer.rng = np.random.default_rng(int(job.seed))
        return synthesizer, entry

    def _complete_with_output(self, job: Job, entry, output, started: float) -> None:
        result_dir = self.queue.result_dir(job.id)
        dataset_dir = save_dataset(output.dataset, result_dir / "dataset")
        atomic_write_json(result_dir / "health.json", output.health, indent=2)
        result = {
            "dataset_dir": str(dataset_dir),
            "health_path": str(result_dir / "health.json"),
            "model_version": entry.version,
            "n_a": len(output.dataset.table_a),
            "n_b": len(output.dataset.table_b),
            "n_matches": len(output.dataset.matches),
            "n_sampled_matches": output.n_sampled_matches,
            "n_posterior_labeled": output.n_posterior_labeled,
            "jsd_final": output.jsd_final,
            "rejection_stats": output.rejection_stats,
            "seconds": time.perf_counter() - started,
            "peak_rss_kb": int(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            ),
        }
        if resources.installed() is not None:
            result["resource"] = self._resource_delta()
        if output.extras.get("shards"):
            result["shards"] = output.extras["shards"]
        self.queue.complete(job.id, self.worker_id, result)

    def _run_simple_job(self, job: Job, stop: CancellationToken) -> None:
        result_dir = self.queue.result_dir(job.id)
        synthesizer, entry = self._load(job)
        started = time.perf_counter()
        output = synthesizer.synthesize(
            job.n_a,
            job.n_b,
            checkpoint_dir=result_dir / "checkpoint",
            stop=stop,
        )
        self._complete_with_output(job, entry, output, started)

    # ------------------------------------------------------------------
    # Sharded synthesis: shard execution + coordination
    # ------------------------------------------------------------------
    def _run_shard_job(self, job: Job, stop: CancellationToken) -> None:
        """Execute one shard's S2 loop; the unit any pool worker can claim.

        The shard's checkpoint lives in the shard job's own result
        directory under the standard ``s2_progress`` stage — so lease
        expiry, the stall watchdog and bit-identical resume all work on
        shard jobs exactly as they do on whole jobs.  The finished
        :class:`~repro.core.sharding.ShardRun` is written to
        ``shard_result.json`` for the coordinator to merge.
        """
        result_dir = self.queue.result_dir(job.id)
        synthesizer, entry = self._load(job)
        seed = int(job.seed) if job.seed is not None else synthesizer.config.seed
        spec = ShardSpec(
            int(job.shard_index), int(job.shards), int(job.n_a), int(job.n_b), seed
        )
        run = synthesizer.synthesize_shard(
            spec, checkpoint_dir=result_dir / "checkpoint", stop=stop
        )
        atomic_write_json(result_dir / "shard_result.json", run.to_payload())
        shard_result = {
            "result_path": str(result_dir / "shard_result.json"),
            "model_version": entry.version,
            "shard_index": spec.index,
            "n_a": len(run.a_entities),
            "n_b": len(run.b_entities),
            "rejection_stats": run.rejection_stats,
            "seconds": run.elapsed_seconds,
            "peak_rss_kb": run.peak_rss_kb,
        }
        if resources.installed() is not None:
            shard_result["resource"] = self._resource_delta()
        self.queue.complete(job.id, self.worker_id, shard_result)

    def _run_sharded_job(self, job: Job, stop: CancellationToken) -> None:
        """Coordinate a ``shards > 1`` job: fan out, merge, label.

        The coordinator submits one idempotency-keyed shard sub-job per
        shard (a restarted coordinator re-submits and observes the same
        records — no duplicates), then waits for them, and — so a lone
        worker can still finish the job — claims and runs its own pending
        shards inline.  A shard's result depends only on the model and its
        spec, not on which worker ran it or in which order.  When every
        shard is done it merges the shard runs and performs the streaming
        S3 + export exactly once.
        """
        result_dir = self.queue.result_dir(job.id)
        synthesizer, entry = self._load(job)
        seed = int(job.seed) if job.seed is not None else synthesizer.config.seed
        n_a, n_b = synthesizer.target_sizes(job.n_a, job.n_b)
        shards_target = int(job.shards)
        governor = resources.installed()
        if governor is not None:
            # Split oversized shards up front instead of letting a shard
            # that cannot fit in the memory budget OOM-and-retry its way
            # into the DLQ.  The split only ever *raises* the shard count;
            # the per-shard RNG streams stay seed-derived, so the fan-out
            # remains deterministic for a given governor configuration.
            cap = governor.max_shard_entities()
            if cap is not None:
                need = -(-(n_a + n_b) // cap)  # ceil division
                if need > shards_target:
                    shards_target = min(64, int(need))
                    resources.count_event("shards_split_oversized")
        plan = plan_shards(n_a, n_b, shards_target, seed)
        started = time.perf_counter()
        if len(plan) == 1:
            # Tiny target: the plan collapses to one shard — just run the
            # sequential loop; no fan-out machinery, bit-identical output.
            self._run_simple_job(job, stop)
            return
        child_ids = []
        for spec in plan:
            child = self.queue.submit(
                job.model,
                version=job.version,
                n_a=spec.n_a,
                n_b=spec.n_b,
                seed=seed,
                max_attempts=job.max_attempts,
                idempotency_key=f"{job.id}:shard{spec.index}",
                kind="shard",
                parent=job.id,
                shard_index=spec.index,
                shards=len(plan),
            )
            child_ids.append(child.id)
        runs: list[ShardRun] | None = None
        while runs is None:
            if stop():
                raise SynthesisInterrupted("shard_coordination", checkpointed=True)
            records = [self.queue.get(cid) for cid in child_ids]
            dead = [r for r in records if r.status == FAILED]
            if dead:
                raise RuntimeError(
                    f"shard job(s) {[r.id for r in dead]} dead-lettered; "
                    f"first error: {dead[0].error}"
                )
            if all(r.status == DONE for r in records):
                # Collection quarantines + requeues corrupt shard results
                # and returns None, in which case the children are pending
                # again and we go back to waiting (and claiming) for them.
                runs = self._collect_shard_runs(child_ids, synthesizer._real.schema)
                continue
            claimed = None
            for record in records:
                claimed = self.queue.claim_job(
                    record, self.worker_id, lease_seconds=self.lease_seconds
                )
                if claimed is not None:
                    break
            if claimed is not None:
                self._run_leased(claimed, stop)
            else:
                stop.wait(min(0.25, self.lease_seconds / 10.0))
        runs.sort(key=lambda run: run.spec.index)
        output = synthesizer.assemble_shard_runs(
            runs, n_a, n_b, checkpoint_dir=result_dir / "checkpoint"
        )
        self._complete_with_output(job, entry, output, started)

    def _collect_shard_runs(
        self, child_ids: list[str], schema
    ) -> list[ShardRun] | None:
        """Read every done child's ``shard_result.json``, or requeue rot.

        A result that fails integrity verification (bit flip between the
        child writing and the coordinator merging), is missing, or does
        not deserialize is quarantined and its child is returned to
        pending via :meth:`JobQueue.reset_for_rerun` — merging garbage
        into O_syn is never an option.  Returns ``None`` when any child
        was requeued so the coordinator resumes waiting; a child that
        rots past its attempt budget dead-letters, which the wait loop
        turns into a coordinator failure.
        """
        runs: list[ShardRun] = []
        corrupt: list[tuple[str, str]] = []
        for cid in child_ids:
            path = self.queue.result_dir(cid) / "shard_result.json"
            try:
                payload = read_json(path, what=f"shard result for {cid!r}")
                runs.append(ShardRun.from_payload(payload, schema))
            except FileNotFoundError:
                corrupt.append((cid, "shard_result.json missing"))
            except CorruptArtifactError as error:
                corrupt.append((cid, error.reason))  # already quarantined
            except (KeyError, TypeError, ValueError) as error:
                # Valid JSON with the wrong shape: read_json can't flag it,
                # so quarantine it here before requeueing the shard.
                integrity.quarantine_artifact(path)
                corrupt.append((cid, f"malformed shard result: {error}"))
        if not corrupt:
            return runs
        for cid, reason in corrupt:
            self.queue.reset_for_rerun(cid, reason=reason)
            integrity.count_event("shards_requeued_corrupt")
        return None

    def run_forever(
        self,
        *,
        poll_seconds: float = 0.5,
        poll_max_seconds: float = 5.0,
        rng: random.Random | None = None,
    ) -> int:
        """Drain the queue until the stop token trips; returns jobs run.

        Empty-queue polls back off exponentially from ``poll_seconds`` up
        to ``poll_max_seconds`` with equal jitter (``uniform(cap/2, cap)``)
        — a fleet of idle workers scanning a shared filesystem queue in
        lockstep is a thundering herd on every submit; the jitter
        decorrelates them and the backoff caps the idle scan rate.  Any
        completed job resets the backoff to the base interval.
        """
        rng = rng or random.Random()
        completed = 0
        idle_polls = 0
        while not self.stop():
            if self.run_once():
                completed += 1
                idle_polls = 0
            else:
                cap = min(poll_max_seconds, poll_seconds * (2.0 ** min(idle_polls, 8)))
                self.stop.wait(rng.uniform(cap / 2.0, cap))
                idle_polls += 1
        return completed


class StallWatchdog:
    """Revokes jobs whose S2 progress checkpoint has stopped advancing.

    Liveness (heartbeats) and progress are different properties: a worker
    wedged in a native call, an NFS hang, or a pathological model keeps
    its lease fresh while doing nothing.  The watchdog fingerprints each
    running job's ``stage_s2_progress.json`` — ``(attempts, mtime_ns,
    size)`` — and when a fingerprint holds still for ``stall_seconds`` it
    revokes the claim.  The job's record stays ``running`` with no claim,
    which to the queue looks exactly like an expired lease: the next
    ``claim()`` reclaims it (attempt budget enforced, so a job that stalls
    every attempt eventually dead-letters), and resume starts from the
    last committed checkpoint.  If the hung worker ever wakes, its
    heartbeat fails, its linked token trips, and ownership checks reject
    anything it tries to write.

    ``scan()`` is the whole algorithm and is callable directly from tests;
    ``start()`` just runs it on a timer thread.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        stall_seconds: float = 120.0,
        poll_seconds: float | None = None,
        metrics=None,
        clock=time.monotonic,
    ):
        self.queue = queue
        self.stall_seconds = float(stall_seconds)
        self.poll_seconds = (
            float(poll_seconds) if poll_seconds is not None
            else max(0.25, self.stall_seconds / 4.0)
        )
        self.metrics = metrics
        self.reclaimed = 0
        self._clock = clock
        # job id -> (fingerprint, monotonic time the fingerprint last changed)
        self._seen: dict[str, tuple[tuple, float]] = {}
        self._halt = threading.Event()
        self._thread: threading.Thread | None = None

    def _fingerprint(self, job: Job) -> tuple:
        progress = (
            self.queue.result_dir(job.id) / "checkpoint" / "stage_s2_progress.json"
        )
        try:
            stat = progress.stat()
            return (job.attempts, stat.st_mtime_ns, stat.st_size)
        except OSError:
            # No checkpoint yet: "not started" is itself a fingerprint — a
            # job that never writes its first checkpoint is also stalled.
            return (job.attempts, "no-checkpoint")

    def scan(self) -> list[str]:
        """One sweep; returns the ids of jobs revoked as stalled."""
        now = self._clock()
        running: dict[str, Job] = {
            job.id: job for job in self.queue.jobs() if job.status == RUNNING
        }
        for gone in set(self._seen) - set(running):
            del self._seen[gone]
        revoked: list[str] = []
        for job_id, job in running.items():
            fingerprint = self._fingerprint(job)
            seen = self._seen.get(job_id)
            if seen is None or seen[0] != fingerprint:
                self._seen[job_id] = (fingerprint, now)
                continue
            if now - seen[1] < self.stall_seconds:
                continue
            if self.queue.revoke(job_id, reason="stalled"):
                self.reclaimed += 1
                revoked.append(job_id)
                del self._seen[job_id]
                if self.metrics is not None:
                    self.metrics.count("stall.reclaims")
        return revoked

    def start(self) -> "StallWatchdog":
        self._halt.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._halt.wait(self.poll_seconds):
            try:
                self.scan()
            except Exception:
                # The watchdog must never take the service down; a torn
                # read this sweep is retried next sweep.
                continue

    def stop(self) -> None:
        self._halt.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


class WorkerPool:
    """N worker subprocesses with supervision and graceful drain."""

    def __init__(
        self,
        queue_dir,
        registry_dir,
        *,
        n_workers: int = 2,
        lease_seconds: float = 30.0,
        poll_seconds: float = 0.5,
        on_restart=None,
        memory_budget_mb: float | None = None,
        disk_low_water_mb: float | None = None,
    ):
        self.queue_dir = str(queue_dir)
        self.registry_dir = str(registry_dir)
        self.n_workers = int(n_workers)
        self.lease_seconds = float(lease_seconds)
        self.poll_seconds = float(poll_seconds)
        self.memory_budget_mb = memory_budget_mb
        self.disk_low_water_mb = disk_low_water_mb
        self.on_restart = on_restart
        self.restarts = 0
        self._procs: list[subprocess.Popen] = []
        self._halt = threading.Event()
        self._supervisor: threading.Thread | None = None

    def _spawn(self) -> subprocess.Popen:
        argv = [
            sys.executable, "-m", "repro", "worker",
            "--queue", self.queue_dir,
            "--registry", self.registry_dir,
            "--lease-seconds", str(self.lease_seconds),
            "--poll-seconds", str(self.poll_seconds),
        ]
        if self.memory_budget_mb is not None:
            argv += ["--memory-budget-mb", str(self.memory_budget_mb)]
        if self.disk_low_water_mb is not None:
            argv += ["--disk-low-water-mb", str(self.disk_low_water_mb)]
        return subprocess.Popen(argv)

    def start(self) -> None:
        self._procs = [self._spawn() for _ in range(self.n_workers)]
        self._supervisor = threading.Thread(target=self._supervise, daemon=True)
        self._supervisor.start()

    def _supervise(self) -> None:
        """Replace dead workers (a crash is expected, not fatal)."""
        while not self._halt.wait(0.5):
            for index, proc in enumerate(self._procs):
                if proc.poll() is None or self._halt.is_set():
                    continue
                self.restarts += 1
                if self.on_restart is not None:
                    self.on_restart(proc.returncode)
                self._procs[index] = self._spawn()

    def drain(self, *, timeout: float = 30.0) -> None:
        """SIGTERM every worker and wait; SIGKILL stragglers past timeout."""
        self._halt.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def alive(self) -> int:
        return sum(1 for proc in self._procs if proc.poll() is None)
