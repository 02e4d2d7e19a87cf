"""Corruption chaos smoke: the service over a rotting artifact tree.

This is the script the CI ``corruption-chaos`` job runs.  Where
``chaos_smoke.py`` proves the overload/disk-fault story, this proves the
*integrity* story on a live service: a gremlin flips random bytes in
durable artifacts between jobs, and the service must keep completing
work, quarantine every piece of garbage it touches, and never hand back
an unverified dataset.

1. register a (GAN-free, fast) restaurant model and start the service;
2. run sharded jobs in rounds; after each round a seeded gremlin flips
   one byte in a handful of artifacts — done job records, shard results,
   S2 checkpoints — and the *next* round must still complete over the
   rotted tree (corrupt queue records are skipped and quarantined
   mid-scan);
3. the tentpole recovery, live: corrupt a finished child's
   ``shard_result.json``, reset its parent with
   ``JobQueue.reset_for_rerun``, and watch the pool coordinator detect
   the rot at merge time, requeue the child, re-run it, and finish —
   with the re-merged dataset bit-identical to the pre-corruption one;
4. fetch every dataset through the checksum-verifying streaming client;
5. scrub the whole tree (the ``repro verify-artifacts`` engine), then
   write ``report.json`` + leave the ``*.corrupt-*`` quarantine files on
   disk for the CI artifact upload.

Run: ``PYTHONPATH=src python examples/corruption_chaos_smoke.py``
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

from repro.core import SERDConfig
from repro.datasets import load_dataset
from repro.runtime.integrity import QUARANTINE_MARK, scrub_tree
from repro.service import JobQueue, ModelRegistry
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.server import SynthesisService


def _flip_byte(path: pathlib.Path, rng: random.Random) -> bool:
    """Flip one bit of one byte in ``path``; False when unflippable."""
    try:
        raw = bytearray(path.read_bytes())
    except OSError:
        return False
    if not raw:
        return False
    index = rng.randrange(len(raw))
    raw[index] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(raw))
    return True


def _corruption_candidates(
    queue: JobQueue, protect: set[str]
) -> list[pathlib.Path]:
    """Artifacts of finished *shard* jobs outside ``protect``.

    Shard children leave behind their queue record, S2 checkpoints
    (manifest + stage payloads) and ``shard_result.json`` — all sealed,
    all with a documented skip/quarantine/re-run recovery, and none read
    again once their coordinator committed.  Rotting them proves the
    queue scan and checkpoint readers degrade instead of crashing.  The
    latest round stays protected so its re-merge (step 3) is driven by
    one *deliberate* corruption, not gremlin luck.
    """
    shard_ids = {
        j.id for j in queue.jobs()
        if j.kind == "shard" and j.status == "done" and j.id not in protect
    }
    candidates = []
    for path in sorted(queue.root.rglob("*.json")):
        if QUARANTINE_MARK in path.name:
            continue
        if path.parent == queue.jobs_dir and path.stem in shard_ids:
            candidates.append(path)
        elif queue.results_dir in path.parents:
            owner = path.relative_to(queue.results_dir).parts[0]
            if owner in shard_ids:
                candidates.append(path)
    return candidates


def _flip_until_corrupt(
    path: pathlib.Path, rng: random.Random, attempts: int = 64
) -> bool:
    """Flip bits until the artifact no longer verifies (a flip landing in
    JSON whitespace changes no canonical byte, so one flip may be benign)."""
    from repro.runtime.io import read_json

    for _ in range(attempts):
        if not _flip_byte(path, rng):
            return False
        try:
            read_json(path, quarantine=False)
        except ValueError:
            return True
    return False


def _dataset_fingerprint(document: dict) -> list:
    return [
        document["table_a"],
        document["table_b"],
        document["matches"],
        document["non_matches"],
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="corruption_chaos_smoke")
    parser.add_argument("--scale", type=float, default=0.08)
    parser.add_argument("--n", type=int, default=16, help="entities per table")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--flips-per-round", type=int, default=4)
    args = parser.parse_args()

    workdir = pathlib.Path(args.workdir)
    queue_dir = workdir / "queue"
    rng = random.Random(args.seed)
    failures: list[str] = []
    flipped: list[str] = []

    print(f"[1/5] registering restaurant model (scale={args.scale}, no GAN) ...")
    real = load_dataset("restaurant", scale=args.scale, seed=args.seed)
    registry = ModelRegistry(workdir / "registry")
    entry = registry.register(
        "restaurant", real, SERDConfig(seed=args.seed, checkpoint_every=5),
        train_gan=False,
    )
    print(f"      registered {entry.name} {entry.version}")

    service = SynthesisService(
        workdir / "registry", queue_dir, port=0, n_workers=2,
        lease_seconds=15.0,
    )
    service.start()
    queue = JobQueue(queue_dir)
    try:
        client = ServiceClient(
            service.url,
            retry_policy=RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=1.0),
        )

        print(f"[2/5] {args.rounds} job rounds with bit-flips in between ...")
        job_ids: list[str] = []
        for round_index in range(args.rounds):
            job = client.submit(
                "restaurant", n_a=args.n, n_b=args.n,
                seed=args.seed + round_index, shards=2,
            )
            record = client.wait(job["id"], timeout=600, poll_seconds=0.3)
            if record["status"] != "done":
                failures.append(
                    f"round {round_index}: job {job['id']} ended "
                    f"{record['status']}: {record.get('error')}"
                )
                continue
            job_ids.append(job["id"])
            protect = {job["id"]} | {c.id for c in queue.children(job["id"])}
            candidates = _corruption_candidates(queue, protect)
            rng.shuffle(candidates)
            for path in candidates[: args.flips_per_round]:
                if _flip_byte(path, rng):
                    flipped.append(str(path.relative_to(workdir)))
            print(
                f"      round {round_index}: job {job['id']} done; flipped "
                f"bytes in {min(args.flips_per_round, len(candidates))} artifact(s)"
            )
        if len(job_ids) != args.rounds:
            failures.append(f"only {len(job_ids)}/{args.rounds} rounds completed")

        print("[3/5] corrupt a shard result, reset its parent, re-merge ...")
        target = job_ids[-1]
        before = _dataset_fingerprint(client.dataset(target))
        children = queue.children(target)
        victim = children[rng.randrange(len(children))]
        result_path = queue.result_dir(victim.id) / "shard_result.json"
        if not _flip_until_corrupt(result_path, rng):
            failures.append(f"could not corrupt {result_path}")
        flipped.append(str(result_path.relative_to(workdir)))
        queue.reset_for_rerun(target, reason="operator-forced re-merge")
        record = client.wait(target, timeout=600, poll_seconds=0.3)
        if record["status"] != "done":
            failures.append(
                f"re-merge of {target} ended {record['status']}: "
                f"{record.get('error')}"
            )
        requeues = [
            e for e in queue.events()
            if e["event"] == "requeued_corrupt" and e["job"] == victim.id
        ]
        if not requeues:
            failures.append(
                f"no requeued_corrupt event for shard {victim.id}; the "
                "coordinator merged without noticing the rot"
            )
        after = _dataset_fingerprint(client.dataset(target))
        if before != after:
            failures.append("re-merged dataset differs from original")
        else:
            print(
                f"      shard {victim.id} requeued ({len(requeues)} event(s)); "
                "re-merged dataset bit-identical"
            )

        print("[4/5] verifying every dataset through the streaming client ...")
        for job_id in job_ids:
            document = client.dataset(job_id)  # checksum-verified stream
            if len(document["table_a"]) != args.n:
                failures.append(f"job {job_id}: short dataset after recovery")
        stats = client.stats()
        integrity_block = stats.get("integrity") or {}
        if integrity_block.get("shards_requeued_corrupt", 0) < 1:
            failures.append(
                f"/stats integrity block missed the requeue: {integrity_block}"
            )
    finally:
        service.stop(drain_timeout=20)

    print("[5/5] offline scrub of the whole artifact tree ...")
    report_scrub = scrub_tree(workdir)
    quarantined = sorted(
        str(p.relative_to(workdir))
        for p in workdir.rglob(f"*{QUARANTINE_MARK}*")
    )
    if flipped and not quarantined:
        failures.append(
            f"{len(flipped)} artifacts were corrupted but none were quarantined"
        )
    print(
        f"      scrubbed {report_scrub['checked']} artifacts: "
        f"{report_scrub['verified']} verified, "
        f"{len(report_scrub['corrupt'])} corrupt caught offline, "
        f"{len(quarantined)} quarantine file(s) on disk"
    )

    report = {
        "unix": time.time(),
        "jobs": job_ids,
        "flipped_artifacts": flipped,
        "quarantined_files": quarantined,
        "integrity_stats": integrity_block,
        "scrub": {k: v for k, v in report_scrub.items() if k != "root"},
        "failures": failures,
    }
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "report.json").write_text(json.dumps(report, indent=2))
    print(f"      report: {workdir / 'report.json'}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "OK: jobs completed over a rotting tree, corrupt shard result "
        "requeued and re-merged bit-identical, datasets stream-verified, "
        "all garbage quarantined"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
