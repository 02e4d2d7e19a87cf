"""Deterministic multi-fault chaos campaigns against a live service.

PRs 2/4/7 built four independent fault families — disk, net, corruption,
kill/stall — but only ever injected one class at a time.  The failures
that actually take down long-running services are *cross-family*: a clock
skew during a retry storm, a worker kill while disk is low.  This module
composes all families (plus the new ``clock.skew`` and ``resource.*``
sites) into seeded multi-round schedules and runs them against a real
:class:`~repro.service.server.SynthesisService` with a live worker pool,
asserting correctness invariants between rounds.

Determinism is the design center.  Every round's schedule is drawn from
``numpy.random.default_rng([seed, round])`` — no wall clock, no global
state — so a campaign at a fixed seed replays bit-identically: the same
rounds, the same fired sites, and (because every job's output is itself
seed-deterministic and fault recovery is bit-exact) the same final dataset
bytes.  ``repro chaos run --replay-check`` runs the campaign twice and
diffs the reports to prove it.

Fault families and how each reaches the system under test:

- ``disk`` — a :class:`~repro.runtime.faults.FaultSpec` on
  ``queue.submit.write`` fires inside the in-process API server during
  job-record creation; the retrying client plus idempotency keys must
  land the job exactly once.
- ``net`` — ``net.request`` (connection reset) or
  ``net.stream.server_truncate`` (dataset stream dropped mid-body);
  client-side retries and the trailing-checksum verification recover.
- ``clock`` — ``clock.skew`` biases every wall-clock read in the campaign
  process's lease arithmetic (API-side claimability checks) by a bounded
  offset below the lease length, the skew the queue documents it
  tolerates.
- ``kill`` — SIGKILL a live pool worker; the supervisor restarts it and
  the lease-steal + checkpoint-resume rails must keep the round's output
  byte-identical.
- ``corruption`` — after the round's job completes, flip one byte of its
  durable ``health.json``; the final offline scrub must report exactly
  the planted rot and nothing else.
- ``resource`` — the round's job is sized so the governor's
  allocation-estimate watermark (``REPRO_ENTITY_EST_KB``) crosses the
  soft budget mid-run inside the worker: the job must *downshift* its
  checkpoint chunk (visible in the result's resource counters) and still
  complete byte-identical — never dead-letter.

Invariants checked every round: the job completed with exactly one
``completed`` event (no lost or duplicated work per idempotency key), its
dataset is byte-identical to a fault-free in-process oracle at the same
seed, and its peak worker RSS stayed under the configured budget.  At
campaign end: quarantine/DLQ accounting balances — every failed job has a
forensics bundle, every corrupt artifact found by the scrub was planted
by the campaign.

The service layer is imported lazily so ``repro.runtime`` stays
import-light for library users; only running a campaign pulls it in.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import signal
import tempfile
import time

import numpy as np

FAMILIES = ("disk", "net", "clock", "kill", "corruption", "resource")

#: Sites a schedule may arm as in-process FaultSpecs, by family.
_NET_SITES = ("net.request", "net.stream.server_truncate")


class ChaosEvent:
    """One planned fault in one round (JSON-able, order-stable)."""

    def __init__(
        self,
        family: str,
        site: str,
        at_calls: tuple[int, ...] = (),
        payload: float | int | None = None,
    ):
        self.family = family
        self.site = site
        self.at_calls = tuple(int(c) for c in at_calls)
        self.payload = payload

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "site": self.site,
            "at_calls": list(self.at_calls),
            "payload": self.payload,
        }


class RoundPlan:
    """One campaign round: a job seed, a job size, and its faults."""

    def __init__(
        self, index: int, job_seed: int, n_entities: int, events: tuple
    ):
        self.index = index
        self.job_seed = job_seed
        self.n_entities = n_entities
        self.events = tuple(events)

    @property
    def families(self) -> tuple[str, ...]:
        return tuple(e.family for e in self.events)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "job_seed": self.job_seed,
            "n_entities": self.n_entities,
            "events": [e.to_dict() for e in self.events],
        }


class ChaosCampaign:
    """A seeded schedule of multi-fault rounds.

    ``schedule()`` is a pure function of ``(seed, rounds, families,
    base_entities, resource_entities)`` — two campaigns constructed alike
    produce identical plans, which is what makes replay meaningful.
    """

    def __init__(
        self,
        seed: int,
        rounds: int,
        *,
        families: tuple[str, ...] = FAMILIES,
        base_entities: int = 7,
        resource_entities: int = 20,
    ):
        unknown = set(families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown chaos families: {sorted(unknown)}")
        if rounds < 1:
            raise ValueError("a campaign needs at least one round")
        self.seed = int(seed)
        self.rounds = int(rounds)
        self.families = tuple(families)
        self.base_entities = int(base_entities)
        self.resource_entities = int(resource_entities)

    def _event(self, family: str, rng: np.random.Generator) -> ChaosEvent:
        if family == "disk":
            # First submit attempt fails with ENOSPC mid-record; the
            # retrying client + idempotency key must land it exactly once.
            return ChaosEvent("disk", "queue.submit.write", at_calls=(1,))
        if family == "net":
            site = _NET_SITES[int(rng.integers(0, len(_NET_SITES)))]
            return ChaosEvent("net", site, at_calls=(1,))
        if family == "clock":
            # Bounded below the campaign lease: the skew the queue's lease
            # arithmetic documents it tolerates.
            return ChaosEvent(
                "clock", "clock.skew",
                payload=round(float(rng.uniform(1.0, 6.0)), 3),
            )
        if family == "kill":
            return ChaosEvent(
                "kill", "kill.worker", payload=int(rng.integers(0, 1 << 16))
            )
        if family == "corruption":
            return ChaosEvent(
                "corruption", "corrupt.health",
                payload=int(rng.integers(1, 256)),
            )
        if family == "resource":
            return ChaosEvent("resource", "resource.overbudget")
        raise AssertionError(family)

    def schedule(self) -> list[RoundPlan]:
        plans = []
        for index in range(self.rounds):
            rng = np.random.default_rng([self.seed, index])
            job_seed = int(rng.integers(0, 2**31 - 1))
            k = int(rng.integers(1, min(3, len(self.families)) + 1))
            picks = sorted(
                int(i)
                for i in rng.choice(len(self.families), size=k, replace=False)
            )
            events = tuple(
                self._event(self.families[i], rng) for i in picks
            )
            n = (
                self.resource_entities
                if any(e.family == "resource" for e in events)
                else self.base_entities
            )
            plans.append(RoundPlan(index, job_seed, n, events))
        return plans

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "families": list(self.families),
            "base_entities": self.base_entities,
            "resource_entities": self.resource_entities,
            "schedule": [plan.to_dict() for plan in self.schedule()],
        }


# ----------------------------------------------------------------------
# Invariant checkers (pure queue/report inspection; unit-testable)
# ----------------------------------------------------------------------
def check_exactly_one_completion(queue, job_id: str) -> str | None:
    """Exactly one ``completed`` event per job — retries and lease steals
    must never double-complete.  Returns an error string or None."""
    completions = [
        e for e in queue.events()
        if e.get("event") == "completed" and e.get("job") == job_id
    ]
    if len(completions) != 1:
        return f"job {job_id} has {len(completions)} completion events"
    return None


def check_no_lost_or_duplicated(queue, idempotency_key: str) -> str | None:
    """Exactly one job record carries the round's idempotency key."""
    matching = [
        job for job in queue.jobs()
        if job.idempotency_key == idempotency_key and job.kind != "shard"
    ]
    if len(matching) != 1:
        return (
            f"idempotency key {idempotency_key!r} maps to "
            f"{len(matching)} job records"
        )
    return None


def check_dlq_accounting(queue) -> list[str]:
    """Every failed job has forensics; every forensics bundle has a failed
    job; dead-letter events match the failed-record count."""
    problems = []
    failed = {job.id for job in queue.jobs() if job.status == "failed"}
    bundles = {
        path.parent.name
        for path in pathlib.Path(queue.dlq_dir).glob("*/forensics.json")
    }
    for job_id in failed - bundles:
        problems.append(f"failed job {job_id} has no forensics bundle")
    for job_id in bundles - failed:
        problems.append(
            f"forensics bundle {job_id} has no failed job record"
        )
    dead_letter_events = {
        e.get("job") for e in queue.events() if e.get("event") == "dead_lettered"
    }
    for job_id in failed - dead_letter_events:
        problems.append(f"failed job {job_id} has no dead_lettered event")
    return problems


def dataset_sha256(document: dict) -> str:
    """Canonical digest of a dataset document (tables + labels)."""
    body = {
        "table_a": document["table_a"],
        "table_b": document["table_b"],
        "matches": document["matches"],
        "non_matches": document["non_matches"],
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _flip_byte(path: pathlib.Path, offset_selector: int, mask: int) -> bool:
    raw = bytearray(path.read_bytes())
    if not raw:
        return False
    offset = offset_selector % len(raw)
    raw[offset] ^= mask or 0xFF
    path.write_bytes(bytes(raw))
    return True


# ----------------------------------------------------------------------
# Campaign execution
# ----------------------------------------------------------------------
def run_campaign(
    workdir: str | os.PathLike,
    *,
    seed: int = 7,
    rounds: int = 3,
    families: tuple[str, ...] = FAMILIES,
    scale: float = 0.08,
    base_entities: int = 7,
    resource_entities: int = 20,
    memory_budget_mb: float = 2048.0,
    disk_low_water_mb: float = 1.0,
    lease_seconds: float = 15.0,
    n_workers: int = 2,
    wait_timeout: float = 600.0,
    dlq_probe: bool = True,
    registry_dir: str | os.PathLike | None = None,
    oracle_cache: dict | None = None,
    progress=print,
) -> dict:
    """Run one campaign; returns the (JSON-able) report.

    ``registry_dir`` may point at a pre-registered model root to share
    across replay runs; ``oracle_cache`` (a dict the caller owns) memoizes
    fault-free oracle fingerprints across runs of the same campaign.
    """
    # Lazy: the service stack is heavy and repro.runtime must import light.
    from repro.core import SERDConfig
    from repro.datasets import load_dataset
    from repro.runtime import resources
    from repro.runtime.faults import FaultPlan, FaultSpec, inject_faults
    from repro.runtime.integrity import CorruptArtifactError, scrub_tree
    from repro.runtime.io import read_json
    from repro.schema.io import iter_saved_dataset_json, save_dataset
    from repro.service import JobQueue, ModelRegistry
    from repro.service.client import RetryPolicy, ServiceClient
    from repro.service.server import SynthesisService

    workdir = pathlib.Path(workdir)
    queue_dir = workdir / "queue"
    campaign = ChaosCampaign(
        seed, rounds,
        families=families,
        base_entities=base_entities,
        resource_entities=resource_entities,
    )
    plans = campaign.schedule()
    oracle_cache = oracle_cache if oracle_cache is not None else {}

    if registry_dir is None:
        registry_dir = workdir / "registry"
    registry = ModelRegistry(registry_dir)
    try:
        registry.get("restaurant")
        progress(f"chaos: reusing registered model under {registry_dir}")
    except KeyError:
        progress(f"chaos: registering restaurant model (scale={scale}) ...")
        real = load_dataset("restaurant", scale=scale, seed=seed)
        registry.register(
            "restaurant", real,
            SERDConfig(seed=seed, checkpoint_every=5),
            train_gan=False,
        )

    # The resource family drives the governor's allocation-estimate
    # watermark deterministically: size the per-entity estimate so the
    # resource round's job crosses the soft watermark mid-run (forcing a
    # chunk downshift) while the base rounds stay well below it and the
    # estimate never exceeds the hard budget by more than the ladder can
    # absorb.  Workers inherit the value via the environment.
    uses_resource = any("resource" in plan.families for plan in plans)
    soft_mb = memory_budget_mb * 0.8
    est_kb = int(1.3 * soft_mb * 1024.0 / (2 * resource_entities))
    previous_est = os.environ.get("REPRO_ENTITY_EST_KB")
    if uses_resource:
        os.environ["REPRO_ENTITY_EST_KB"] = str(est_kb)

    report: dict = {
        "seed": campaign.seed,
        "schedule": campaign.to_dict(),
        "entity_est_kb": est_kb if uses_resource else None,
        "memory_budget_mb": memory_budget_mb,
        "rounds": [],
        "failures": [],
    }
    planted_corruption: list[str] = []

    service = SynthesisService(
        registry_dir, queue_dir, port=0,
        n_workers=n_workers, lease_seconds=lease_seconds,
        memory_budget_mb=memory_budget_mb,
        disk_low_water_mb=disk_low_water_mb,
    )
    service.start()
    queue = JobQueue(queue_dir)
    try:
        client = ServiceClient(
            service.url,
            retry_policy=RetryPolicy(
                max_attempts=8, base_delay=0.1, max_delay=1.0
            ),
        )

        def oracle_sha(job_seed: int, n: int) -> str:
            # The fingerprint must be computed over the exact same document
            # shape the service serves: rows are {"id", "values"} records
            # whose values round-tripped through the CSV export.  Hashing
            # the in-memory dataset directly would diverge on formatting
            # alone, so the oracle takes the same save -> stream path.
            key = (job_seed, n)
            if key not in oracle_cache:
                synthesizer, _ = registry.load("restaurant")
                synthesizer.rng = np.random.default_rng(job_seed)
                output = synthesizer.synthesize(n, n)
                with tempfile.TemporaryDirectory(
                    prefix="chaos-oracle-"
                ) as tmp:
                    saved = save_dataset(
                        output.dataset, pathlib.Path(tmp) / "dataset"
                    )
                    document = json.loads(
                        "".join(
                            iter_saved_dataset_json(saved, integrity=False)
                        )
                    )
                oracle_cache[key] = dataset_sha256(document)
            return oracle_cache[key]

        for plan in plans:
            entry: dict = {
                "index": plan.index,
                "job_seed": plan.job_seed,
                "n_entities": plan.n_entities,
                "planned_sites": [e.site for e in plan.events],
                "fired_sites": [],
                "failures": [],
            }
            events_by_family = {e.family: e for e in plan.events}
            specs = [
                FaultSpec(e.site, at_calls=e.at_calls)
                if e.payload is None
                else FaultSpec(e.site, at_calls=e.at_calls, payload=e.payload)
                for e in plan.events
                if e.family in ("disk", "net", "clock")
            ]
            fault_plan = FaultPlan(*specs)
            idempotency_key = f"chaos-{campaign.seed}-r{plan.index}"
            progress(
                f"chaos: round {plan.index}: families="
                f"{','.join(plan.families)} seed={plan.job_seed} "
                f"n={plan.n_entities}"
            )
            with inject_faults(fault_plan):
                job = client.submit(
                    "restaurant",
                    n_a=plan.n_entities,
                    n_b=plan.n_entities,
                    seed=plan.job_seed,
                    idempotency_key=idempotency_key,
                )
                job_id = job["id"]
                entry["job_id"] = job_id
                kill_event = events_by_family.get("kill")
                if kill_event is not None:
                    _kill_one_worker(
                        service, client, job_id, kill_event.payload,
                        progress=progress,
                    )
                    entry["fired_sites"].append("kill.worker")
                record = client.wait(
                    job_id, timeout=wait_timeout, poll_seconds=0.3
                )
                if record["status"] != "done":
                    entry["failures"].append(
                        f"job ended {record['status']}: {record.get('error')}"
                    )
                else:
                    document = client.dataset(job_id)
                    entry["dataset_sha256"] = dataset_sha256(document)
            for spec in specs:
                if fault_plan.fired(spec.site):
                    entry["fired_sites"].append(spec.site)

            if record["status"] == "done":
                expected = oracle_sha(plan.job_seed, plan.n_entities)
                entry["oracle_sha256"] = expected
                if entry.get("dataset_sha256") != expected:
                    entry["failures"].append(
                        "dataset differs from the fault-free oracle"
                    )
                peak_kb = (record.get("result") or {}).get("peak_rss_kb")
                entry["peak_rss_kb"] = peak_kb
                if peak_kb is not None and peak_kb > memory_budget_mb * 1024:
                    entry["failures"].append(
                        f"peak worker RSS {peak_kb} KB exceeds the "
                        f"{memory_budget_mb} MB budget"
                    )
                if "resource" in events_by_family:
                    counters = (record.get("result") or {}).get("resource") or {}
                    entry["resource"] = counters
                    if counters.get("chunk_downshifts", 0) < 1:
                        entry["failures"].append(
                            "memory-overbudget job did not downshift its "
                            f"chunk size (counters: {counters})"
                        )
                    else:
                        entry["fired_sites"].append("resource.overbudget")

                corruption = events_by_family.get("corruption")
                if corruption is not None:
                    victim = queue.result_dir(job_id) / "health.json"
                    if victim.exists() and _flip_byte(
                        victim, corruption.payload, corruption.payload & 0xFF
                    ):
                        planted_corruption.append(str(victim))
                        entry["fired_sites"].append("corrupt.health")
                        try:
                            read_json(victim, quarantine=False)
                            entry["failures"].append(
                                "planted health.json corruption was not "
                                "detected on read"
                            )
                        except (CorruptArtifactError, ValueError):
                            pass
                    else:
                        entry["failures"].append(
                            f"could not corrupt {victim}"
                        )

            for problem in (
                check_no_lost_or_duplicated(queue, idempotency_key),
                check_exactly_one_completion(queue, job_id)
                if record["status"] == "done"
                else None,
            ):
                if problem:
                    entry["failures"].append(problem)
            entry["ok"] = not entry["failures"]
            report["rounds"].append(entry)
            report["failures"].extend(
                f"round {plan.index}: {f}" for f in entry["failures"]
            )

        if dlq_probe:
            # One doomed job proves the DLQ path still accounts cleanly
            # under the campaign's residual faults.
            doomed = queue.submit("no-such-model", max_attempts=1)
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if queue.get(doomed.id).status == "failed":
                    break
                time.sleep(0.2)
            else:
                report["failures"].append("doomed DLQ probe never failed")
            report["dlq_probe"] = doomed.id

        report["stats"] = client.stats()
    finally:
        service.stop(drain_timeout=30)
        if uses_resource:
            if previous_est is None:
                os.environ.pop("REPRO_ENTITY_EST_KB", None)
            else:
                os.environ["REPRO_ENTITY_EST_KB"] = previous_est

    # Post-drain accounting: DLQ bundles balance, and the only corruption
    # in the tree is what the campaign planted.  health.json is a
    # protected name, so planted rot surfaces under ``protected_corrupt``
    # (reported, never renamed) — exactly the verify-artifacts contract.
    report["failures"].extend(check_dlq_accounting(queue))
    scrub = scrub_tree(workdir, quarantine=False)
    found = scrub["corrupt"] + scrub["protected_corrupt"]
    unexplained = [
        item for item in found if item["path"] not in planted_corruption
    ]
    report["scrub"] = {
        "checked": scrub["checked"],
        "verified": scrub["verified"],
        "corrupt": len(scrub["corrupt"]),
        "protected_corrupt": len(scrub["protected_corrupt"]),
        "dlq": scrub["dlq"],
        "planted": len(planted_corruption),
    }
    for item in unexplained:
        report["failures"].append(
            f"unexplained corruption at {item['path']}: {item['reason']}"
        )
    planted_found = {item["path"] for item in found}
    for path in planted_corruption:
        if path not in planted_found:
            report["failures"].append(
                f"planted corruption at {path} was not found by the scrub"
            )
        if path not in {item["path"] for item in scrub["protected_corrupt"]}:
            report["failures"].append(
                f"planted health.json rot at {path} was not classified as "
                "protected (it must be reported, never quarantined)"
            )
    report["ok"] = not report["failures"]
    return report


def _kill_one_worker(
    service, client, job_id: str, selector: int, *, progress=print
) -> None:
    """SIGKILL one pool worker once the job is visibly running.

    Which process dies is chosen by the schedule (``selector``); whether it
    is the job's owner is a coin flip, and both outcomes are valid chaos —
    the invariants must hold either way.
    """
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if client.job(job_id)["status"] in ("running", "done"):
            break
        time.sleep(0.1)
    procs = [p for p in service.pool._procs if p.poll() is None]
    if not procs:
        return
    victim = procs[selector % len(procs)]
    try:
        victim.send_signal(signal.SIGKILL)
    except OSError:
        return
    progress(f"chaos: SIGKILL'd worker pid {victim.pid}")


def replay_fingerprint(report: dict) -> dict:
    """The replay-comparable core of a campaign report.

    Two runs of the same campaign must agree on this exactly: the full
    schedule, each round's fired sites, and each round's dataset digest.
    (Job ids, timings and RSS readings legitimately differ run to run.)
    """
    return {
        "schedule": report["schedule"],
        "rounds": [
            {
                "index": entry["index"],
                "fired_sites": sorted(set(entry.get("fired_sites", []))),
                "dataset_sha256": entry.get("dataset_sha256"),
            }
            for entry in report["rounds"]
        ],
    }
