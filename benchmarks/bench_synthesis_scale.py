"""Perf trajectory — sharded S2 synthesis throughput vs worker count.

Fits one restaurant model at ``scale=1.0``, then synthesizes a target
**5x the real tables** (8640 entities — the size of a scale-5 restaurant,
the paper's scalability regime) four ways:

- ``sequential_baseline``: the sequential S2 loop with every S2
  optimization patched back to its reference
  (:func:`tests.reference.seed_path.seed_path`) — per-component scipy
  densities, per-call JSD with both sides resampled (no cached
  ``PairJsdEstimator``), per-call q-gram tokenization, and full profile
  rebuilds.  Validated against a checkout of the pre-optimization tree:
  throughput agrees within measurement noise.
- ``sequential_fastpath``: the same loop on the production paths (what a
  ``shards=1`` job runs).
- ``workers=N``: a real :class:`~repro.service.worker.WorkerPool` of N
  subprocess workers draining one ``shards=N`` job — coordinator fan-out,
  per-shard Eq. 10 rejection, streaming merge + S3.

Tracks entities/second and peak RSS per configuration.  The acceptance
bar is >= 3x throughput at 4 workers over the sequential baseline; on a
single-core host that margin comes from the cached + vectorized JSD path
riding under every shard, with sharding adding real-core scaling
elsewhere.

Also A/Bs the checkpointed sequential loop with artifact-integrity
envelopes on vs off (``integrity.disabled()``) and records the
throughput delta under ``integrity`` — sealing every checkpoint commit
must cost < 3% ent/s at full scale.  The same A/B runs with the resource
governor armed at generous budgets vs absent (``resource_governor``):
watermark sampling and disk preflight must also stay under 3% when
nothing trips.

Writes ``BENCH_synthesis_scale.json`` at the repo root.  Runnable
standalone (``python benchmarks/bench_synthesis_scale.py [--smoke]``) or
through pytest.  ``--smoke`` is the CI mode: a small 2-worker run that
also asserts a one-shard pool job is bit-identical to the in-process
sequential loop.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import resource
import sys
import tempfile
import time
import warnings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # tests.reference
OUTPUT_PATH = REPO_ROOT / "BENCH_synthesis_scale.json"

FULL = {
    "fit_scale": 1.0,
    "scale_factor": 5.0,
    "worker_counts": (1, 2, 4),
    "seed": 11,
}
SMOKE = {
    "fit_scale": 0.08,
    "scale_factor": 2.0,
    "worker_counts": (1, 2),
    "seed": 11,
}
JOB_TIMEOUT_SECONDS = 900.0


def _peak_rss_kb(who) -> int:
    return int(resource.getrusage(who).ru_maxrss)


def _registry(scratch: pathlib.Path, *, fit_scale: float, seed: int):
    from repro.core import SERDConfig
    from repro.datasets import load_dataset
    from repro.service.registry import ModelRegistry

    real = load_dataset("restaurant", scale=fit_scale, seed=seed)
    registry = ModelRegistry(scratch / "registry")
    registry.register("restaurant", real, SERDConfig(seed=seed))
    return registry, real


def _sequential(registry, n_a, n_b, seed, *, seed_path: bool):
    import numpy as np

    from tests.reference import seed_path as reference

    synthesizer, _ = registry.load("restaurant")
    synthesizer.rng = np.random.default_rng(seed)
    started = time.perf_counter()
    with reference.seed_path() if seed_path else contextlib.nullcontext():
        output = synthesizer.synthesize(n_a, n_b)
    elapsed = time.perf_counter() - started
    return output, {
        "entities": n_a + n_b,
        "seconds": round(elapsed, 2),
        "entities_per_second": round((n_a + n_b) / elapsed, 1),
        "peak_rss_kb": _peak_rss_kb(resource.RUSAGE_SELF),
    }


def _pool_run(scratch, registry, n_workers, n_a, n_b, seed):
    """One shards=N job through a pool of N subprocess workers."""
    from repro.service.queue import JobQueue
    from repro.service.worker import WorkerPool

    queue = JobQueue(scratch / f"queue_w{n_workers}")
    job = queue.submit(
        "restaurant", n_a=n_a, n_b=n_b, seed=seed, shards=n_workers
    )
    pool = WorkerPool(
        queue.root,
        registry.root,
        n_workers=n_workers,
        lease_seconds=60.0,
        poll_seconds=0.1,
    )
    submitted = time.perf_counter()
    pool.start()
    try:
        deadline = time.time() + JOB_TIMEOUT_SECONDS
        while time.time() < deadline:
            record = queue.get(job.id)
            if record.status in ("done", "failed"):
                break
            time.sleep(0.25)
        else:
            raise TimeoutError(f"{n_workers}-worker job still running")
    finally:
        pool.drain(timeout=30.0)
    wall = time.perf_counter() - submitted
    record = queue.get(job.id)
    if record.status != "done":
        raise RuntimeError(f"job failed: {record.error}")
    seconds = record.result["seconds"]
    row = {
        "workers": n_workers,
        "shards": n_workers,
        "entities": n_a + n_b,
        "seconds": round(seconds, 2),
        "wall_seconds": round(wall, 2),
        "entities_per_second": round((n_a + n_b) / seconds, 1),
        # Workers are subprocesses: their high-water mark lands in
        # RUSAGE_CHILDREN once the pool has been reaped.
        "peak_rss_children_kb": _peak_rss_kb(resource.RUSAGE_CHILDREN),
    }
    if "shards" in record.result:
        row["per_shard"] = [
            {
                "index": s["index"],
                "entities": s["n_a"] + s["n_b"],
                "seconds": round(s["elapsed_seconds"], 2),
                "peak_rss_kb": s["peak_rss_kb"],
            }
            for s in record.result["shards"]
        ]
    return record, row


def _integrity_overhead(registry, n_a, n_b, seed):
    """A/B the checkpointed sequential loop with and without envelopes.

    Checkpointing is what makes the comparison honest: the S2 loop then
    commits progress payloads on its normal cadence, and the sealed run
    hashes every one of them (plus the manifest double-write), while the
    unsealed run writes the identical artifacts without envelopes via
    ``integrity.disabled()``.
    """
    import numpy as np

    from repro.runtime import integrity

    rows = {}
    for label, sealed in (("sealed", True), ("unsealed", False)):
        with tempfile.TemporaryDirectory(prefix="bench_integrity") as ckpt:
            synthesizer, _ = registry.load("restaurant")
            synthesizer.rng = np.random.default_rng(seed)
            guard = contextlib.nullcontext() if sealed else integrity.disabled()
            started = time.perf_counter()
            with guard:
                synthesizer.synthesize(n_a, n_b, checkpoint_dir=ckpt)
            elapsed = time.perf_counter() - started
            rows[label] = {
                "seconds": round(elapsed, 2),
                "entities_per_second": round((n_a + n_b) / elapsed, 1),
            }
    rows["overhead_pct"] = round(
        (rows["unsealed"]["entities_per_second"]
         / rows["sealed"]["entities_per_second"] - 1.0) * 100.0,
        2,
    )
    return rows


def _governor_overhead(registry, n_a, n_b, seed):
    """A/B the checkpointed sequential loop with the governor on vs off.

    The governed run installs generous budgets (a terabyte of memory, a
    1 MB disk low-water mark), so every watermark is *sampled* at each
    checkpoint boundary and every durable commit pays the statvfs
    preflight, but nothing ever trips — the measured delta is the pure
    bookkeeping cost of resource hardening on the happy path.
    """
    import numpy as np

    from repro.runtime import resources
    from repro.runtime.resources import ResourceBudget, ResourceGovernor

    rows = {}
    for label, governed in (("governed", True), ("ungoverned", False)):
        with tempfile.TemporaryDirectory(prefix="bench_governor") as ckpt:
            synthesizer, _ = registry.load("restaurant")
            synthesizer.rng = np.random.default_rng(seed)
            if governed:
                resources.install(
                    ResourceGovernor(
                        ResourceBudget(
                            memory_budget_mb=1024.0 * 1024.0,
                            disk_low_water_mb=1.0,
                        )
                    )
                )
            try:
                started = time.perf_counter()
                synthesizer.synthesize(n_a, n_b, checkpoint_dir=ckpt)
                elapsed = time.perf_counter() - started
            finally:
                resources.uninstall()
                resources.reset_counters()
            rows[label] = {
                "seconds": round(elapsed, 2),
                "entities_per_second": round((n_a + n_b) / elapsed, 1),
            }
    rows["overhead_pct"] = round(
        (rows["ungoverned"]["entities_per_second"]
         / rows["governed"]["entities_per_second"] - 1.0) * 100.0,
        2,
    )
    return rows


def _dataset_tuple(dataset):
    return (
        [(e.entity_id, tuple(e.values)) for e in dataset.table_a],
        [(e.entity_id, tuple(e.values)) for e in dataset.table_b],
        dataset.matches,
        dataset.non_matches,
    )


def run(*, smoke: bool = False) -> dict:
    from repro.schema.io import load_saved_dataset

    params = SMOKE if smoke else FULL
    seed = params["seed"]
    warnings.simplefilter("ignore", RuntimeWarning)
    with tempfile.TemporaryDirectory(prefix="bench_synth_scale") as scratch:
        scratch_dir = pathlib.Path(scratch)
        registry, real = _registry(
            scratch_dir, fit_scale=params["fit_scale"], seed=seed
        )
        n_a = int(params["scale_factor"] * len(real.table_a))
        n_b = int(params["scale_factor"] * len(real.table_b))

        seq_output, fastpath_row = _sequential(
            registry, n_a, n_b, seed, seed_path=False
        )
        _, baseline = _sequential(registry, n_a, n_b, seed, seed_path=True)

        by_workers = {}
        pool_records = {}
        for n_workers in params["worker_counts"]:
            record, row = _pool_run(
                scratch_dir, registry, n_workers, n_a, n_b, seed
            )
            pool_records[n_workers] = record
            row["speedup_vs_baseline"] = round(
                row["entities_per_second"] / baseline["entities_per_second"], 2
            )
            by_workers[str(n_workers)] = row

        # Equivalence oracle: a one-shard pool job is the sequential loop.
        one_shard = pool_records.get(1)
        single_shard_identical = None
        if one_shard is not None:
            pooled = load_saved_dataset(one_shard.result["dataset_dir"])
            single_shard_identical = _dataset_tuple(pooled) == _dataset_tuple(
                seq_output.dataset
            )

        integrity_rows = _integrity_overhead(registry, n_a, n_b, seed)
        governor_rows = _governor_overhead(registry, n_a, n_b, seed)

    return {
        "benchmark": "synthesis_scale",
        "mode": "smoke" if smoke else "full",
        "dataset": "restaurant",
        "fit_scale": params["fit_scale"],
        "scale_factor": params["scale_factor"],
        "seed": seed,
        "n_a": n_a,
        "n_b": n_b,
        "sequential_baseline": baseline,
        "sequential_fastpath": fastpath_row,
        "by_workers": by_workers,
        "single_shard_identical_to_sequential": single_shard_identical,
        "integrity": integrity_rows,
        "resource_governor": governor_rows,
    }


def report(payload: dict) -> str:
    base = payload["sequential_baseline"]
    lines = [
        "Sharded S2 synthesis throughput "
        f"(restaurant, {payload['n_a']}+{payload['n_b']} entities, "
        f"{payload['mode']} mode)",
        f"{'config':>22s} {'ent/sec':>10s} {'speedup':>8s} {'peak RSS kB':>12s}",
        f"{'sequential baseline':>22s} {base['entities_per_second']:10.1f} "
        f"{1.0:8.2f} {base['peak_rss_kb']:12d}",
    ]
    fast = payload["sequential_fastpath"]
    lines.append(
        f"{'sequential fastpath':>22s} {fast['entities_per_second']:10.1f} "
        f"{fast['entities_per_second'] / base['entities_per_second']:8.2f} "
        f"{fast['peak_rss_kb']:12d}"
    )
    for workers, row in payload["by_workers"].items():
        lines.append(
            f"{workers + ' worker(s)':>22s} {row['entities_per_second']:10.1f} "
            f"{row['speedup_vs_baseline']:8.2f} "
            f"{row['peak_rss_children_kb']:12d}"
        )
    lines.append(
        "single-shard pool job bit-identical to sequential loop: "
        f"{payload['single_shard_identical_to_sequential']}"
    )
    integrity = payload["integrity"]
    lines.append(
        "integrity envelopes (checkpointed sequential run): "
        f"{integrity['sealed']['entities_per_second']:.1f} ent/s sealed vs "
        f"{integrity['unsealed']['entities_per_second']:.1f} unsealed "
        f"({integrity['overhead_pct']:+.2f}% overhead)"
    )
    governor = payload["resource_governor"]
    lines.append(
        "resource governor (checkpointed sequential run): "
        f"{governor['governed']['entities_per_second']:.1f} ent/s governed vs "
        f"{governor['ungoverned']['entities_per_second']:.1f} ungoverned "
        f"({governor['overhead_pct']:+.2f}% overhead)"
    )
    return "\n".join(lines)


def main(*, smoke: bool = False) -> dict:
    payload = run(smoke=smoke)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    print(f"[written to {OUTPUT_PATH}]")
    if payload["single_shard_identical_to_sequential"] is not True:
        raise SystemExit("one-shard pool job diverged from the sequential loop")
    # Hashing every checkpoint commit must stay in the noise.  At full
    # scale the bar is 3%; the smoke run is seconds long and dominated by
    # fixed costs, so it only gets a coarse regression tripwire.
    overhead_ceiling_pct = 3.0 if not smoke else 25.0
    overhead_pct = payload["integrity"]["overhead_pct"]
    if overhead_pct > overhead_ceiling_pct:
        raise SystemExit(
            f"integrity envelope overhead {overhead_pct}% exceeds the "
            f"{overhead_ceiling_pct}% ceiling"
        )
    # Same bar for the resource governor: sampling watermarks at checkpoint
    # boundaries and preflighting disk on every durable commit must not
    # tax an unpressured run.
    governor_pct = payload["resource_governor"]["overhead_pct"]
    if governor_pct > overhead_ceiling_pct:
        raise SystemExit(
            f"resource governor overhead {governor_pct}% exceeds the "
            f"{overhead_ceiling_pct}% ceiling"
        )
    if not smoke:
        # The acceptance floor only applies at scale: a ~300-entity smoke
        # run is dominated by fixed costs (worker startup, model load) and
        # is too small for the vectorized JSD path to pay off.
        top = str(max(int(w) for w in payload["by_workers"]))
        speedup = payload["by_workers"][top]["speedup_vs_baseline"]
        if speedup < 3.0:
            raise SystemExit(
                f"{top}-worker speedup {speedup}x below the 3.0x floor"
            )
    return payload


def test_synthesis_scale_bench(reports):
    payload = main(smoke=True)
    reports.save("synthesis_scale", report(payload))
    assert payload["single_shard_identical_to_sequential"] is True


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])
