"""Fault-injection tests for workers: the crash-resume invariant.

The ISSUE 3 acceptance criterion lives here: a job whose worker is killed
mid-S2 must be reclaimed by another worker and finish with a dataset
bit-identical to an uninterrupted run under the same seed.
"""

import os
import signal
import subprocess
import time

import numpy as np
import pytest

from repro.runtime.cancellation import CancellationToken
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedInterrupt, inject_faults
from repro.schema.io import load_saved_dataset
from repro.service import JobQueue, Worker, WorkerPool

pytestmark = pytest.mark.fault_injection


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "queue")


def _baseline_dataset(registry, seed, n_a, n_b):
    """What an uninterrupted worker would produce for this job."""
    synthesizer, _ = registry.load("restaurant")
    synthesizer.rng = np.random.default_rng(seed)
    with pytest.warns(RuntimeWarning):  # tiny scale livelocks; expected
        return synthesizer.synthesize(n_a, n_b).dataset


def _assert_same_dataset(actual, expected):
    assert [e.values for e in actual.table_a] == [e.values for e in expected.table_a]
    assert [e.values for e in actual.table_b] == [e.values for e in expected.table_b]
    assert actual.matches == expected.matches
    assert actual.non_matches == expected.non_matches


def _read_health(queue, job_id):
    import json

    path = queue.result_dir(job_id) / "health.json"
    return json.loads(path.read_text())


def _s2_counters(health):
    (s2,) = [s for s in health["stages"] if s["name"] == "s2_synthesis"]
    return s2["counters"]


class TestCrashResume:
    def test_killed_worker_reclaimed_bit_identical(self, queue, service_registry):
        """kill -9 mid-S2 -> lease expiry -> reclaim -> identical dataset."""
        expected = _baseline_dataset(service_registry, seed=7, n_a=20, n_b=20)

        job = queue.submit("restaurant", n_a=20, n_b=20, seed=7)
        crasher = Worker(
            queue, service_registry, worker_id="crasher", lease_seconds=0.2
        )
        plan = FaultPlan(FaultSpec("synthesize.step", at_calls=(12,)))
        with inject_faults(plan):
            with pytest.raises(InjectedInterrupt):
                crasher.run_once()
        assert plan.fired("synthesize.step") == 1
        # The "crashed" worker left the job looking in-flight; nothing
        # cleaned up after it — that is exactly the kill -9 aftermath.
        assert queue.get(job.id).status == "running"

        time.sleep(0.3)  # let the dead worker's lease expire
        rescuer = Worker(
            queue, service_registry, worker_id="rescuer", lease_seconds=30
        )
        with pytest.warns(RuntimeWarning):
            assert rescuer.run_once()

        record = queue.get(job.id)
        assert record.status == "done"
        assert record.worker == "rescuer"
        assert record.attempts == 2
        _assert_same_dataset(
            load_saved_dataset(record.result["dataset_dir"]), expected
        )
        # The rescuer resumed the crasher's committed progress, it did not
        # start over: entities survived the crash.
        assert _s2_counters(_read_health(queue, job.id))["resumed_entities"] > 0
        assert [e["event"] for e in queue.events()] == [
            "submitted", "claimed", "reclaimed", "completed",
        ]

    def test_uninterrupted_worker_matches_baseline(self, queue, service_registry):
        """Control for the invariant: no fault, same seed, same dataset."""
        expected = _baseline_dataset(service_registry, seed=7, n_a=20, n_b=20)
        job = queue.submit("restaurant", n_a=20, n_b=20, seed=7)
        with pytest.warns(RuntimeWarning):
            assert Worker(queue, service_registry).run_once()
        record = queue.get(job.id)
        assert record.status == "done"
        _assert_same_dataset(
            load_saved_dataset(record.result["dataset_dir"]), expected
        )


class _TripAfter(CancellationToken):
    """A token that trips itself after N polls (deterministic drain point)."""

    def __init__(self, polls: int):
        super().__init__()
        self.polls = polls
        self.seen = 0

    def __call__(self) -> bool:
        self.seen += 1
        if self.seen > self.polls:
            self.request("drain test")
        return super().__call__()


class TestGracefulDrain:
    def test_drained_job_released_and_resumed_bit_identical(
        self, queue, service_registry
    ):
        expected = _baseline_dataset(service_registry, seed=11, n_a=18, n_b=18)
        job = queue.submit("restaurant", n_a=18, n_b=18, seed=11)

        # Worker 1 gets SIGTERM'd (modelled by the token tripping mid-S2):
        # synthesize commits a final checkpoint, the worker releases the job.
        token = _TripAfter(polls=10)
        drained = Worker(
            queue, service_registry, worker_id="draining", stop=token
        )
        assert drained.run_once()
        record = queue.get(job.id)
        assert record.status == "pending"
        assert record.attempts == 0  # a graceful release burns no attempt
        assert "released" in [e["event"] for e in queue.events()]

        # Worker 2 picks it up and finishes from the drain checkpoint.
        with pytest.warns(RuntimeWarning):
            assert Worker(queue, service_registry, worker_id="finisher").run_once()
        record = queue.get(job.id)
        assert record.status == "done"
        _assert_same_dataset(
            load_saved_dataset(record.result["dataset_dir"]), expected
        )
        assert _s2_counters(_read_health(queue, job.id))["resumed_entities"] > 0


class TestWorkerPool:
    def test_pool_restarts_killed_worker(self, tmp_path, service_registry):
        queue = JobQueue(tmp_path / "queue")  # empty: workers just poll
        pool = WorkerPool(
            queue.root,
            service_registry.root,
            n_workers=1,
            lease_seconds=5,
            poll_seconds=0.1,
        )
        pool.start()
        try:
            deadline = time.time() + 10
            while pool.alive() < 1 and time.time() < deadline:
                time.sleep(0.05)
            assert pool.alive() == 1

            os.kill(pool._procs[0].pid, signal.SIGKILL)
            deadline = time.time() + 10
            while pool.restarts < 1 and time.time() < deadline:
                time.sleep(0.05)
            assert pool.restarts >= 1

            deadline = time.time() + 10
            while pool.alive() < 1 and time.time() < deadline:
                time.sleep(0.05)
            assert pool.alive() == 1  # supervisor replaced the dead worker
        finally:
            pool.drain(timeout=10)
        assert pool.alive() == 0

    def test_drain_deadline_ignores_wall_clock_jumps(self, monkeypatch):
        """A wall-clock step during drain must neither cut the grace period
        short (SIGKILLing a worker mid-checkpoint) nor stretch it."""

        class _SlowToExit:
            """Exits 1 s after SIGTERM; a shorter wait times out."""

            def __init__(self):
                self.waits = []
                self.killed = False

            def poll(self):
                return None

            def send_signal(self, signum):
                assert signum == signal.SIGTERM

            def wait(self, timeout=None):
                self.waits.append(timeout)
                if timeout is not None and timeout < 1.0:
                    raise subprocess.TimeoutExpired("worker", timeout)
                return 0

            def kill(self):
                self.killed = True

        wall = iter(range(0, 10**6, 3600))  # every read jumps an hour ahead
        monkeypatch.setattr(time, "time", lambda: float(next(wall)))
        pool = WorkerPool("queue", "registry", n_workers=1)
        proc = _SlowToExit()
        pool._procs = [proc]
        pool.drain(timeout=10)
        assert not proc.killed
        assert 9.0 <= proc.waits[0] <= 10.0
