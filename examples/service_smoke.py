"""End-to-end service smoke test: kill a worker mid-S2, watch it recover.

This is the script the CI ``service-smoke`` job runs.  It exercises the
whole service stack against the tiny restaurant dataset:

1. register a fitted model in a fresh :class:`ModelRegistry`;
2. start :class:`SynthesisService` (HTTP API + one worker subprocess with a
   deliberately short lease);
3. submit a synthesis job and, as soon as the worker has committed its
   first S2 progress checkpoint, ``SIGKILL`` the worker — no cleanup, no
   goodbye, exactly what a preempted node looks like;
4. the pool supervisor restarts the worker, the restarted worker reclaims
   the expired lease and resumes from the checkpoint;
5. verify the job completes, that a reclaim actually happened, that the
   resumed run reports ``resumed_entities > 0``, and that the final dataset
   is bit-identical to an uninterrupted in-process run under the same seed;
6. register a second version, then ``POST /label`` naming ``v1`` and check
   the labels equal in-process ``posterior_match`` of ``v1`` on the same
   pairs: a pinned version answers the same however many come after it.

With ``--shards 2`` the job is sharded.  The one worker coordinates it and
runs both shard sub-jobs inline, so the SIGKILL lands inside a shard the
coordinator claimed itself.  The oracle is in-process
``synthesize(n_shards=2)``, and the checks add that no shard sub-job was
dead-lettered and that the ``resumed_entities`` of the job's
``s2_synthesis_shard<k>`` stages sum to more than zero.

The job's health report is left at ``<workdir>/queue/results/<job>/
health.json`` for CI to upload as an artifact.

Run: ``PYTHONPATH=src python examples/service_smoke.py [--shards 2]``
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.core import SERDConfig
from repro.datasets import load_dataset
from repro.gan import TabularGANConfig
from repro.schema.io import load_saved_dataset
from repro.service import JobQueue, ModelRegistry
from repro.service.client import ServiceClient
from repro.service.server import SynthesisService


def _wait_for(predicate, *, timeout: float, poll: float = 0.05, what: str = ""):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise TimeoutError(f"timed out after {timeout}s waiting for {what}")


def _check_pinned_label(registry, client, real, config) -> list[str]:
    """``POST /label`` naming v1 once v2 exists equals in-process v1."""
    second = registry.register(
        "restaurant", real, config, train_gan=False, audit=False
    )
    if second.version != "v2":
        return [f"second registration published {second.version}, not v2"]
    ids = list(real.matches[:4]) + list(real.non_matches[:4])
    pairs = [
        [list(real.table_a[a].values), list(real.table_b[b].values)]
        for a, b in ids
    ]
    response = client.label("restaurant", pairs, version="v1")
    v1, _ = registry.load("restaurant", "v1")
    vectors = v1.similarity_model.vectors(
        [(real.table_a[a], real.table_b[b]) for a, b in ids]
    )
    expected = v1.o_labeling.posterior_match(vectors)
    failures = []
    if response["version"] != "v1":
        failures.append(f"/label naming v1 answered from {response['version']}")
    if response["labels"] != [bool(p >= 0.5) for p in expected]:
        failures.append("v1 labels differ from in-process posterior_match")
    if np.max(np.abs(np.asarray(response["match_probability"]) - expected)) > 1e-12:
        failures.append("v1 match probabilities differ from in-process ones")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="service_smoke")
    parser.add_argument("--scale", type=float, default=0.08)
    parser.add_argument("--n", type=int, default=60, help="entities per table")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=1)
    args = parser.parse_args()
    sharded = args.shards > 1

    workdir = pathlib.Path(args.workdir)
    registry_dir = workdir / "registry"
    queue_dir = workdir / "queue"

    print(f"[1/6] registering restaurant model (scale={args.scale}) ...")
    real = load_dataset("restaurant", scale=args.scale, seed=args.seed)
    registry = ModelRegistry(registry_dir)
    config = SERDConfig(
        seed=args.seed,
        gan=TabularGANConfig(iterations=15),
        checkpoint_every=5,
    )
    entry = registry.register("restaurant", real, config)
    print(f"      registered {entry.name} {entry.version}")

    print("[2/6] starting service (1 worker, 2s lease) ...")
    service = SynthesisService(
        registry_dir, queue_dir, port=0, n_workers=1, lease_seconds=2.0
    )
    service.start()
    queue = JobQueue(queue_dir)
    try:
        client = ServiceClient(service.url)

        print("[3/6] computing the uninterrupted baseline in-process ...")
        baseline, _ = registry.load("restaurant")
        baseline.rng = np.random.default_rng(args.seed)
        expected = baseline.synthesize(
            args.n, args.n, n_shards=args.shards
        ).dataset

        job_id = client.submit(
            "restaurant", n_a=args.n, n_b=args.n, seed=args.seed,
            shards=args.shards,
        )["id"]
        print(f"      submitted {job_id}")

        # Kill the worker the moment its first S2 progress checkpoint lands
        # on disk — from then on a resume has real progress to pick up.
        # A sharded job checkpoints in its shard sub-jobs' directories.
        def progress_committed():
            owners = queue.children(job_id) if sharded else [queue.get(job_id)]
            for owner in owners:
                manifest = (
                    queue.result_dir(owner.id) / "checkpoint" / "manifest.json"
                )
                if manifest.exists() and "s2_progress" in manifest.read_text():
                    return True
            return False

        _wait_for(
            progress_committed, timeout=120, what="first s2 progress checkpoint"
        )
        victim = service.pool._procs[0]
        victim.kill()  # SIGKILL: no drain, no release — a real crash
        print(f"[4/6] SIGKILL'd worker pid {victim.pid} mid-S2")

        record = client.wait(job_id, timeout=300, poll_seconds=0.2)
        if record["status"] != "done":
            print(f"FAIL: job finished as {record['status']}: {record.get('error')}")
            return 1

        print("[5/6] verifying recovery ...")
        events = [e["event"] for e in queue.events()]
        failures = []
        if "reclaimed" not in events:
            failures.append(f"no reclaim happened (events: {events})")
        if service.pool.restarts < 1:
            failures.append("supervisor never restarted the killed worker")
        if sharded:
            dead = [c.id for c in queue.children(job_id) if c.status != "done"]
            if dead:
                failures.append(f"shard sub-jobs not done: {dead}")
        health = json.loads(
            (queue.result_dir(job_id) / "health.json").read_text()
        )
        prefix = "s2_synthesis_shard" if sharded else "s2_synthesis"
        s2_stages = [s for s in health["stages"] if s["name"].startswith(prefix)]
        if sharded and len(s2_stages) != args.shards:
            failures.append(f"health has {len(s2_stages)} shard S2 stage(s)")
        resumed = sum(
            s["counters"].get("resumed_entities", 0) for s in s2_stages
        )
        if resumed <= 0:
            failures.append("job did not resume from the checkpoint")
        actual = load_saved_dataset(record["result"]["dataset_dir"])
        if (
            [e.values for e in actual.table_a] != [e.values for e in expected.table_a]
            or [e.values for e in actual.table_b]
            != [e.values for e in expected.table_b]
            or actual.matches != expected.matches
            or actual.non_matches != expected.non_matches
        ):
            failures.append("recovered dataset differs from uninterrupted baseline")

        print("[6/6] labeling with v1 after registering v2 ...")
        failures.extend(_check_pinned_label(registry, client, real, config))

        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            f"OK: worker killed mid-S2, job reclaimed (attempts="
            f"{record['attempts']}), resumed {resumed} entities, "
            "dataset bit-identical to the uninterrupted run, "
            "v1 labels unchanged by v2"
        )
        print(f"health report: {queue.result_dir(job_id) / 'health.json'}")
        return 0
    finally:
        service.stop(drain_timeout=15)


if __name__ == "__main__":
    sys.exit(main())
