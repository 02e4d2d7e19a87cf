"""Tests for sharded synthesis through the worker pool.

Covers the coordinator protocol (fan-out, inline claiming, merge), the
targeted shard-lease claim under contention, crash-retry of a shard child,
a job drained by a pool of worker processes, and the jittered empty-queue
backoff in ``Worker.run_forever``.  A sharded
job's oracle is in-process ``synthesize(n_shards=k)`` on the same model:
the service plans shards from the job seed, so those jobs carry none.
"""

import json
import pathlib
import random
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core import SERDConfig
from repro.datasets import load_dataset
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedInterrupt, inject_faults
from repro.schema.io import load_saved_dataset
from repro.service import JobQueue, ModelRegistry, Worker, WorkerPool


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "queue")


@pytest.fixture(scope="module")
def eq10_registry(tmp_path_factory):
    """A registry whose model lets Eq. 10 decide candidates at small sizes
    (the session's service model rejects every candidate by
    discriminator), with the default checkpoint cadence."""
    registry = ModelRegistry(tmp_path_factory.mktemp("eq10_registry"))
    registry.register(
        "restaurant", load_dataset("restaurant", scale=0.1, seed=7),
        SERDConfig(seed=7),
    )
    return registry


def _in_process(registry, n_a, n_b, n_shards):
    synthesizer, _ = registry.load("restaurant")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return synthesizer.synthesize(n_a, n_b, n_shards=n_shards)


def _run_to_done(queue, registry, job_id, worker_id="w0", attempts=6):
    worker = Worker(queue, registry, worker_id=worker_id, lease_seconds=30)
    for _ in range(attempts):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            worker.run_once()
        if queue.get(job_id).status == "done":
            return queue.get(job_id)
    raise AssertionError(f"job {job_id} not done: {queue.get(job_id).status}")


def _dataset_tuple(dataset):
    return (
        [(e.entity_id, tuple(e.values)) for e in dataset.table_a],
        [(e.entity_id, tuple(e.values)) for e in dataset.table_b],
        dataset.matches,
        dataset.non_matches,
    )


class TestShardLeaseRace:
    def test_exactly_one_racing_worker_wins(self, queue):
        """Adversarial: two workers grab the same shard lease at once."""
        job = queue.submit("restaurant", n_a=4, n_b=4, kind="shard",
                           shard_index=0, shards=2, parent="p0")
        barrier = threading.Barrier(2)
        results = {}

        def race(worker_id):
            barrier.wait()
            results[worker_id] = queue.claim_job(
                job, worker_id, lease_seconds=30
            )

        threads = [
            threading.Thread(target=race, args=(w,)) for w in ("w0", "w1")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        winners = [w for w, claimed in results.items() if claimed is not None]
        assert len(winners) == 1
        record = queue.get(job.id)
        assert record.status == "running"
        assert record.worker == winners[0]
        # The loser retrying still loses while the lease is live.
        loser = ({"w0", "w1"} - set(winners)).pop()
        assert queue.claim_job(job, loser, lease_seconds=30) is None
        # ... also when it re-reads the record first.
        assert queue.claim_job(record, loser, lease_seconds=30) is None

    def test_claim_job_ignores_other_jobs(self, queue):
        other = queue.submit("restaurant", n_a=4, n_b=4)
        target = queue.submit("restaurant", n_a=4, n_b=4, kind="shard",
                              shard_index=0, shards=2, parent="p0")
        claimed = queue.claim_job(target, "w0")
        assert claimed is not None and claimed.id == target.id
        assert queue.get(other.id).status == "pending"
        # A record read before the claim is not claimable by someone else.
        assert queue.claim_job(target, "w1") is None


class TestShardedJobEndToEnd:
    def test_coordinator_fans_out_and_merges(self, queue, service_registry):
        job = queue.submit("restaurant", n_a=14, n_b=14, seed=29, shards=2)
        record = _run_to_done(queue, service_registry, job.id)

        children = queue.children(job.id)
        assert [c.shard_index for c in children] == [0, 1]
        assert all(c.status == "done" for c in children)
        assert all(c.kind == "shard" for c in children)

        assert record.result["n_a"] == 14
        shards = record.result["shards"]
        assert [s["index"] for s in shards] == [0, 1]
        assert sum(s["n_a"] for s in shards) == 14

        dataset = load_saved_dataset(record.result["dataset_dir"])
        ids = [e.entity_id for e in dataset.table_a]
        assert len(dataset.table_a) == 14
        assert all(eid.startswith(("s0_", "s1_")) for eid in ids)

    def test_health_has_one_s2_stage_per_shard(self, queue, service_registry):
        """The coordinator's health report carries every shard's S2 stage
        record (the shards ran as their own jobs), and their rejection
        counters add up to the job's rejection stats."""
        job = queue.submit("restaurant", n_a=14, n_b=14, seed=29, shards=2)
        record = _run_to_done(queue, service_registry, job.id)
        health = json.loads(pathlib.Path(record.result["health_path"]).read_text())
        stages = {
            s["name"]: s for s in health["stages"]
            if s["name"].startswith("s2_synthesis")
        }
        assert sorted(stages) == ["s2_synthesis_shard0", "s2_synthesis_shard1"]
        assert all(s["status"] == "completed" for s in stages.values())
        stats = record.result["rejection_stats"]
        assert sum(stats.values()) > 0
        assert {
            key: sum(s["counters"].get(key, 0) for s in stages.values())
            for key in stats
        } == stats

    def test_one_worker_job_matches_in_process(self, queue, eq10_registry):
        """A one-worker sharded job gives the dataset of in-process
        ``synthesize(n_shards=2)`` on the same model."""
        job = queue.submit("restaurant", n_a=30, n_b=30, shards=2)
        record = _run_to_done(queue, eq10_registry, job.id)
        expected = _in_process(eq10_registry, 30, 30, n_shards=2)
        assert expected.rejection_stats["distribution"] > 0
        assert record.result["rejection_stats"] == expected.rejection_stats
        assert _dataset_tuple(
            load_saved_dataset(record.result["dataset_dir"])
        ) == _dataset_tuple(expected.dataset)

    def test_two_process_pool_matches_in_process(self, queue, eq10_registry):
        """Two worker processes drain one ``shards=2`` job: whichever
        process claims which shard, the merged dataset is in-process
        ``synthesize(n_shards=2)``'s."""
        job = queue.submit("restaurant", n_a=30, n_b=30, shards=2)
        pool = WorkerPool(
            queue.root, eq10_registry.root,
            n_workers=2, lease_seconds=30, poll_seconds=0.05,
        )
        pool.start()
        try:
            deadline = time.monotonic() + 60
            while queue.get(job.id).status not in ("done", "failed"):
                assert time.monotonic() < deadline, "pool job still running"
                time.sleep(0.1)
        finally:
            pool.drain(timeout=10)
        record = queue.get(job.id)
        assert record.status == "done", record.error
        assert len(queue.children(job.id)) == 2
        expected = _in_process(eq10_registry, 30, 30, n_shards=2)
        assert record.result["rejection_stats"] == expected.rejection_stats
        assert _dataset_tuple(
            load_saved_dataset(record.result["dataset_dir"])
        ) == _dataset_tuple(expected.dataset)

    def test_sharded_run_deterministic_across_jobs(
        self, queue, service_registry
    ):
        """Same model+seed+shards twice through the pool: same dataset."""
        first = queue.submit("restaurant", n_a=12, n_b=12, seed=31, shards=2)
        second = queue.submit("restaurant", n_a=12, n_b=12, seed=31, shards=2)
        rec_a = _run_to_done(queue, service_registry, first.id)
        rec_b = _run_to_done(queue, service_registry, second.id)
        assert _dataset_tuple(
            load_saved_dataset(rec_a.result["dataset_dir"])
        ) == _dataset_tuple(load_saved_dataset(rec_b.result["dataset_dir"]))

    def test_shards_collapse_to_sequential_when_target_tiny(
        self, queue, service_registry
    ):
        """A 1-entity side cannot hold 4 shards: the plan collapses to a
        single shard, which must take the plain sequential path (no child
        jobs, sequential-loop entity ids)."""
        job = queue.submit("restaurant", n_a=1, n_b=6, seed=3, shards=4)
        record = _run_to_done(queue, service_registry, job.id)
        assert queue.children(job.id) == []
        assert "shards" not in record.result
        dataset = load_saved_dataset(record.result["dataset_dir"])
        assert len(dataset.table_a) == 1
        assert len(dataset.table_b) == 6
        assert all(
            e.entity_id.startswith(("sa", "sb"))
            for e in list(dataset.table_a) + list(dataset.table_b)
        )

    def test_crashed_shard_child_retried_bit_identical(
        self, queue, service_registry
    ):
        """A crash inside a shard the coordinator runs itself is a crash,
        not a failure: the child is left ``running`` with no attempt burned
        at crash time, its lease expires, and a rescuer resumes it from its
        own checkpoint; the merged dataset matches in-process
        ``synthesize(n_shards=2)``."""
        expected = _in_process(service_registry, 12, 12, n_shards=2).dataset

        job = queue.submit("restaurant", n_a=12, n_b=12, shards=2)
        crasher = Worker(
            queue, service_registry, worker_id="crasher", lease_seconds=0.2
        )
        plan = FaultPlan(FaultSpec("synthesize.step", at_calls=(7,)))
        with inject_faults(plan), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(InjectedInterrupt):
                crasher.run_once()
        assert plan.fired("synthesize.step") == 1
        # The kill -9 aftermath: parent and the crashed child both still
        # look in-flight; nothing recorded a failure.
        assert queue.get(job.id).status == "running"
        crashed = [c for c in queue.children(job.id) if c.status == "running"]
        assert len(crashed) == 1 and crashed[0].error is None

        time.sleep(0.3)  # let the dead worker's leases expire
        record = _run_to_done(queue, service_registry, job.id, worker_id="rescuer")
        # Exactly one child was claimed twice: by the crasher, then the rescuer.
        assert sorted(c.attempts for c in queue.children(job.id)) == [1, 2]
        actual = load_saved_dataset(record.result["dataset_dir"])
        assert _dataset_tuple(actual) == _dataset_tuple(expected)


class _ScriptedStop:
    """Counts waits, trips after a fixed number; records every timeout."""

    def __init__(self, max_waits):
        self.waits = []
        self.max_waits = max_waits

    def __call__(self):
        return len(self.waits) >= self.max_waits

    def wait(self, timeout=None):
        self.waits.append(timeout)


class TestJitteredBackoff:
    def test_idle_polls_back_off_with_jitter(self, queue, service_registry):
        worker = Worker(queue, service_registry, worker_id="idle")
        stop = _ScriptedStop(max_waits=8)
        worker.stop = stop
        completed = worker.run_forever(
            poll_seconds=0.1, poll_max_seconds=1.0, rng=random.Random(0)
        )
        assert completed == 0
        caps = [min(1.0, 0.1 * 2.0**i) for i in range(8)]
        for delay, cap in zip(stop.waits, caps):
            assert cap / 2.0 <= delay <= cap
        # Jitter: the capped tail must not be a constant.
        tail = stop.waits[4:]
        assert len(set(tail)) > 1

    def test_completed_job_resets_backoff(self, queue, service_registry):
        worker = Worker(queue, service_registry, worker_id="busy")
        stop = _ScriptedStop(max_waits=6)
        worker.stop = stop
        script = iter([False, False, False, True, False, False, False])
        worker.run_once = lambda: next(script, False)
        worker.run_forever(
            poll_seconds=0.1, poll_max_seconds=10.0, rng=random.Random(1)
        )
        # Three idle polls escalate; the completed job resets to base.
        assert stop.waits[2] > stop.waits[0]
        assert stop.waits[3] <= 0.1  # back to uniform(0.05, 0.1)
