"""Concurrency tests for the atomic I/O layer, queue claims and counters.

Three invariants the service stack leans on:

- ``atomic_write_json`` under racing writers: a reader never observes a
  torn file — every read is the complete output of exactly one writer.
- ``JobQueue.claim`` under racing workers: exactly one claimant wins a
  given job, even when all of them fire at the same instant.
- :class:`~repro.runtime.Counters` under racing threads: no increment is
  lost.
"""

import multiprocessing
import os
import sys
import threading

import pytest

from repro.runtime import Counters
from repro.runtime.io import atomic_write_json, read_json
from repro.service import JobQueue

# The claim protocol relies on POSIX rename semantics; these tests also
# assume fork-able multiprocessing.
pytestmark = pytest.mark.skipif(os.name != "posix", reason="POSIX-only test")

_PAYLOAD_CHARS = 4096  # large enough that a torn write would be visible


def _writer_proc(path, writer_id, rounds, barrier):
    barrier.wait()
    for round_index in range(rounds):
        atomic_write_json(
            path,
            {
                "writer": writer_id,
                "round": round_index,
                "payload": chr(ord("a") + writer_id) * _PAYLOAD_CHARS,
            },
        )


def _claim_proc(queue_root, worker_id, barrier, results):
    queue = JobQueue(queue_root)
    barrier.wait()
    job = queue.claim(f"w{worker_id}", lease_seconds=60)
    results.put((worker_id, None if job is None else job.id))


class TestAtomicWriteRaces:
    def test_racing_writers_never_tear(self, tmp_path):
        """Interleave 4 writers with a hot reader: every read is complete."""
        path = tmp_path / "contended.json"
        atomic_write_json(path, {"writer": -1, "round": -1, "payload": ""})

        n_writers, rounds = 4, 40
        barrier = multiprocessing.Barrier(n_writers + 1)
        procs = [
            multiprocessing.Process(
                target=_writer_proc, args=(path, i, rounds, barrier)
            )
            for i in range(n_writers)
        ]
        for proc in procs:
            proc.start()
        barrier.wait()

        observed_writers = set()
        while any(proc.is_alive() for proc in procs):
            document = read_json(path)  # must never raise: no torn JSON
            observed_writers.add(document["writer"])
            if document["writer"] >= 0:
                expected = chr(ord("a") + document["writer"]) * _PAYLOAD_CHARS
                assert document["payload"] == expected
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        # The final state is one writer's last complete document.
        final = read_json(path)
        assert final["round"] == rounds - 1
        assert len(observed_writers) >= 1

    def test_no_tmp_litter_after_race(self, tmp_path):
        """Atomic writes clean up their tmp files even under contention."""
        path = tmp_path / "contended.json"
        n_writers = 4
        barrier = multiprocessing.Barrier(n_writers)
        procs = [
            multiprocessing.Process(
                target=_writer_proc, args=(path, i, 20, barrier)
            )
            for i in range(n_writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert [p.name for p in tmp_path.iterdir()] == ["contended.json"]


class TestConcurrentClaims:
    def test_exactly_one_winner_per_job(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        job = queue.submit("m")

        n_claimants = 8
        barrier = multiprocessing.Barrier(n_claimants)
        results: multiprocessing.Queue = multiprocessing.Queue()
        procs = [
            multiprocessing.Process(
                target=_claim_proc, args=(queue.root, i, barrier, results)
            )
            for i in range(n_claimants)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        outcomes = [results.get(timeout=5) for _ in range(n_claimants)]
        winners = [w for w, claimed in outcomes if claimed == job.id]
        assert len(winners) == 1
        assert queue.get(job.id).status == "running"
        assert queue.get(job.id).attempts == 1

    def test_n_jobs_n_claimants_all_disjoint(self, tmp_path):
        """With as many jobs as claimants, everyone wins a *different* job."""
        queue = JobQueue(tmp_path / "queue")
        n = 6
        submitted = {queue.submit("m").id for _ in range(n)}

        barrier = multiprocessing.Barrier(n)
        results: multiprocessing.Queue = multiprocessing.Queue()
        procs = [
            multiprocessing.Process(
                target=_claim_proc, args=(queue.root, i, barrier, results)
            )
            for i in range(n)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        claimed = [results.get(timeout=5)[1] for _ in range(n)]
        claimed = [c for c in claimed if c is not None]
        # No two claimants got the same job.
        assert len(claimed) == len(set(claimed))
        assert set(claimed) <= submitted


class TestCounters:
    def test_racing_increments_are_never_lost(self):
        threads, increments = 8, 5000
        counters = Counters("events", "untouched")
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(increments):
                counters.count("events")

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        # Switch threads as often as possible so an unlocked
        # read-modify-write would lose increments.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert counters.snapshot() == {
            "events": threads * increments,
            "untouched": 0,
        }
        counters.reset()
        assert counters.snapshot() == {"events": 0, "untouched": 0}
