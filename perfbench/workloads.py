"""The benchmark's two workloads.

Every workload is a closed loop with one caller: it sends the next job or
label request only after the previous one has completed.  The real dataset
and the fitted model are fixed per workload (generated from ``DATA_SEED``);
the workload seed generates the stream the program is given: one seed per
job and the record pairs of every label request.

- ``restaurant-rules-service``: the paper's default pipeline (rule text
  backend, rejection on) behind the HTTP service in one process: one
  in-process worker thread, ``shards=2`` jobs downloaded through the
  checksum-verified stream, ``/label`` batches while the worker is idle.
  Offline time is registration (fit, seal, privacy audit); S2 is most of a
  job, and rejection (GAN discriminator + Eq. 10 JSD) is most of S2; the
  rest of a job is S3, sealing, export, queue and shard merge.
- ``restaurant-dp-transformer``: the paper-faithful text path through the
  library (transformer buckets trained with DP-SGD).  Offline time is
  DP-SGD training, online time is almost all lazy-engine decode.  Rejection
  is off: with DP text most candidates are rejected, so a job's decode count
  swung 2.5x with its seed; rejection is measured on the other workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import SERDConfig, SERDSynthesizer, load_dataset
from repro.nn import lazy
from repro.privacy.dpsgd import DPSGDConfig
from repro.runtime import integrity
from repro.runtime.io import read_json
from repro.service.client import ServiceClient
from repro.service.server import SynthesisService
from repro.service.worker import Worker
from repro.textgen.transformer_backend import TransformerTextSynthesizerConfig

import layers

# Seed of the real dataset and of the model config.  Fixing them keeps the
# fitted model identical across workload seeds: fit time varied by 0.50 to
# 0.72 s across dataset seeds on restaurant, against 0.65 to 0.68 s for
# repeats of one seed, so a seeded dataset would make offline_s measure the
# dataset instead of the code.
DATA_SEED = 7
# Client job-poll interval (seconds): small and fixed, so job time is not
# rounded up to a coarse poll.
POLL_SECONDS = 0.02
# Worker idle-poll interval (seconds), fixed.  Each idle poll reads every job
# record in the queue, so at 0.02 s the scan took the interpreter lock from
# registrations and /label requests more as the run's queue history grew
# (registrations slowed by up to 1.7x within a run).  0.1 s adds at most
# 0.1 s of pick-up delay to a job.
WORKER_POLL_SECONDS = 0.1
# Record pairs per label request, as in the service's /label benchmark.
LABEL_BATCH = 64
# Jobs of a traced run that also run untraced, for the tracing overhead.
OVERHEAD_JOBS = 2
# After its first min_jobs jobs, a run starts no further fit or job once it
# has measured for this many times --seconds: the event counts are sized for
# a fast host, and this keeps a run on a slow one within its time budget.
OVERRUN = 1.1


@dataclass(frozen=True)
class Size:
    """The size-dependent part of a workload."""

    scale: float          # dataset scale passed to load_dataset
    job_fraction: float   # synthetic table size / real table size
    n_setups: int         # set-ups per run, all but the first in fresh processes
    n_fits: int           # fits or registrations per run (offline_s median)
    min_jobs: int
    run_seconds_per_job: float  # --seconds per job, fits included
    label_requests: int   # label requests per run (>= 100 for a p90)
    transformer: TransformerTextSynthesizerConfig | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    kind: str  # "library" or "service"
    full: Size
    tiny: Size
    dp: bool = False
    reject_entities: bool = True
    shards: int = 1

    def config(self, size: Size) -> SERDConfig:
        if self.dp:
            return SERDConfig(
                seed=DATA_SEED, reject_entities=self.reject_entities,
                text_backend="transformer", dp=DPSGDConfig(),
                transformer=size.transformer,
            )
        return SERDConfig(seed=DATA_SEED, reject_entities=self.reject_entities)


# The reduced transformer of the DP workload: 5 similarity buckets, 3
# DP-SGD iterations per bucket, 4 candidates per decode, 24-char strings.
DP_TRANSFORMER = TransformerTextSynthesizerConfig(
    n_buckets=5, training_iterations=3, n_candidates=4, pairs_per_bucket=32,
    max_length=24,
)
DP_TRANSFORMER_TINY = TransformerTextSynthesizerConfig(
    n_buckets=2, training_iterations=2, n_candidates=2, pairs_per_bucket=8,
    max_length=12,
)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "restaurant-rules-service", "restaurant", "service",
            full=Size(0.5, 0.5, 3, 14, 8, 4.0, 240),
            tiny=Size(0.05, 1.0, 2, 1, 2, 1.0, 20),
            shards=2,
        ),
        Workload(
            "restaurant-dp-transformer", "restaurant", "library",
            full=Size(0.05, 0.3, 3, 8, 12, 3.0, 240, DP_TRANSFORMER),
            tiny=Size(0.03, 0.4, 2, 1, 2, 1.0, 20, DP_TRANSFORMER_TINY),
            dp=True, reject_entities=False,
        ),
    )
}


def n_jobs(size: Size, seconds: float) -> int:
    """Jobs per run: a fixed function of the size and ``--seconds``."""
    return max(size.min_jobs, int(seconds // size.run_seconds_per_job))


# ----------------------------------------------------------------------
# Inputs and checks
# ----------------------------------------------------------------------
class Inputs:
    """What the workload seed generates: job seeds and label requests."""

    def __init__(self, seed: int, jobs: int, size: Size, n_a: int, n_b: int):
        rng = np.random.default_rng([seed, 0xBE4C])
        self.job_seeds = [int(s) for s in rng.integers(1, 2**31 - 1, size=jobs)]
        self.label_pairs = [
            list(zip(rng.integers(0, n_a, LABEL_BATCH).tolist(),
                     rng.integers(0, n_b, LABEL_BATCH).tolist()))
            for _ in range(size.label_requests)
        ]

    def label_bursts(self, n_bursts: int) -> list[list]:
        """The label requests split into ``n_bursts`` consecutive bursts."""
        per = -(-len(self.label_pairs) // n_bursts)
        return [self.label_pairs[k * per:(k + 1) * per] for k in range(n_bursts)]


def dataset_sha256(table_a, table_b, matches, non_matches) -> str:
    """Digest of a synthetic dataset's rows and labels (canonical JSON)."""
    payload = {
        "table_a": table_a, "table_b": table_b,
        "matches": [list(p) for p in matches],
        "non_matches": [list(p) for p in non_matches],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_dataset(n_a, n_b, ids_a, ids_b, matches, non_matches) -> list[str]:
    """Sizes equal the request; every labelled id resolves to an entity."""
    problems = []
    if len(ids_a) != n_a or len(ids_b) != n_b:
        problems.append(f"sizes {len(ids_a)}x{len(ids_b)} != requested {n_a}x{n_b}")
    known_a, known_b = set(ids_a), set(ids_b)
    if len(known_a) != len(ids_a) or len(known_b) != len(ids_b):
        problems.append("duplicate entity ids")
    dangling = [
        p for p in list(matches) + list(non_matches)
        if p[0] not in known_a or p[1] not in known_b
    ]
    if dangling:
        problems.append(f"{len(dangling)} labelled pairs name unknown ids, e.g. {dangling[0]}")
    return problems


def check_labels(n_pairs: int, labels, probabilities) -> list[str]:
    if len(labels) != n_pairs or len(probabilities) != n_pairs:
        return [f"{len(labels)} labels for {n_pairs} pairs"]
    bad = [
        (lab, p) for lab, p in zip(labels, probabilities)
        if not (0.0 <= p <= 1.0) or bool(lab) != (p >= 0.5)
    ]
    return [f"{len(bad)} labels disagree with their probability"] if bad else []


def _stage_seconds(health: dict) -> dict[str, float]:
    names = {"s1": "s1", "text": "text", "gan": "gan",
             "s2_synthesis": "s2", "s3_labeling": "s3"}
    return {
        names[s["name"]]: float(s["seconds"])
        for s in health.get("stages", []) if s["name"] in names
    }


def _rows(relation) -> list:
    return [[e.entity_id, list(e.values)] for e in relation]


# ----------------------------------------------------------------------
# Sessions: one per workload kind, same interface
# ----------------------------------------------------------------------
class LibrarySession:
    """Calls SERD through the library in this thread."""

    def __init__(self, workload: Workload, size: Size, real, tracer, seed: int, out: str):
        self.workload, self.size, self.real = workload, size, real
        self.synth: SERDSynthesizer | None = None

    def fit(self) -> dict:
        """Fit a fresh synthesizer; returns the fit's stage seconds."""
        synth = SERDSynthesizer(self.workload.config(self.size))
        synth.fit(self.real)
        self.synth = synth
        return _stage_seconds(synth.health.to_dict())

    def job(self, job_seed: int, n_a: int, n_b: int) -> dict:
        synth = self.synth
        synth.rng = np.random.default_rng(job_seed)
        started = time.perf_counter()
        output = synth.synthesize(n_a, n_b)
        elapsed = time.perf_counter() - started
        dataset = output.dataset
        ids_a = [e.entity_id for e in dataset.table_a]
        ids_b = [e.entity_id for e in dataset.table_b]
        problems = check_dataset(n_a, n_b, ids_a, ids_b, dataset.matches,
                                 dataset.non_matches)
        eps = output.epsilon
        if self.workload.dp and (eps is None or not math.isfinite(eps) or eps <= 0):
            problems.append(f"accounted epsilon {eps!r} is not finite and positive")
        return {
            "elapsed": elapsed,
            "n_a": len(ids_a), "n_b": len(ids_b),
            "jsd_final": output.jsd_final,
            "epsilon": eps,
            "rejection_stats": dict(output.rejection_stats),
            "stages": {k: v for k, v in _stage_seconds(output.health).items()
                       if k in ("s2", "s3")},
            "sha256": dataset_sha256(_rows(dataset.table_a), _rows(dataset.table_b),
                                     dataset.matches, dataset.non_matches),
            "problems": problems,
        }

    def label(self, batch) -> list[str]:
        rows_a, rows_b = self.real.table_a.entities, self.real.table_b.entities
        pairs = [(rows_a[i], rows_b[j]) for i, j in batch]
        vectors = self.synth.similarity_model.vectors(pairs)
        probabilities = self.synth.o_labeling.posterior_match(vectors)
        return check_labels(len(pairs), [bool(p >= 0.5) for p in probabilities],
                            [float(p) for p in probabilities])

    def close(self) -> None:
        self.synth = None


class ServiceSession:
    """A registry, queue, HTTP server, one worker thread and one client."""

    def __init__(self, workload: Workload, size: Size, real, tracer, seed: int, out: str):
        self.workload, self.size, self.real, self.tracer = workload, size, real, tracer
        self.model = workload.dataset
        self.root = tempfile.mkdtemp(prefix="service-", dir=out)
        self.service = SynthesisService(
            os.path.join(self.root, "registry"), os.path.join(self.root, "queue"),
            port=0, n_workers=0,
        ).start()
        self.worker = Worker(self.service.queue, self.service.registry,
                             worker_id="bench-worker")
        self.thread = threading.Thread(
            target=self.worker.run_forever,
            kwargs={"poll_seconds": WORKER_POLL_SECONDS,
                    "poll_max_seconds": WORKER_POLL_SECONDS,
                    "rng": random.Random(seed)},
            name="bench-worker", daemon=True,
        )
        self.thread.start()
        self.client = ServiceClient(self.service.url, rng=random.Random(seed))
        # Label requests name the first version, so that every registration
        # does not add a model load to the next request's latency.
        self.label_version: str | None = None

    def fit(self) -> dict:
        """Register the next model version (fit, seal, privacy audit)."""
        version = self.service.registry.register(
            self.model, self.real, self.workload.config(self.size)
        )
        self.label_version = self.label_version or version.version
        return _stage_seconds(version.meta["health"])

    def job(self, job_seed: int, n_a: int, n_b: int) -> dict:
        client = self.client
        started = time.perf_counter()
        job = client.submit(self.model, n_a=n_a, n_b=n_b, seed=job_seed,
                            shards=self.workload.shards)
        record = client.wait(job["id"], timeout=150.0, poll_seconds=POLL_SECONDS)
        noticed = time.time()
        download_started = time.perf_counter()
        problems = []
        if record["status"] != "done":
            problems.append(f"job ended {record['status']}: {record.get('error')}")
            text = None
        else:
            # Raises unless the client's integrity-trailer check passes.
            text = "".join(client.dataset_stream(job["id"], verify=True))
        finished = time.perf_counter()
        service = {
            "service.jobs_sent": 1.0,
            "service.jobs_failed": float(bool(problems)),
            "service.queue_wait_s": (record["started_unix"] or 0) - record["submitted_unix"],
            "service.worker_busy_s": (record["finished_unix"] or 0) - (record["started_unix"] or 0),
            "service.download_s": finished - download_started,
            "service.poll_overhead_s": max(0.0, noticed - (record["finished_unix"] or noticed)),
        }
        outcome = {"elapsed": finished - started, "n_a": 0, "n_b": 0,
                   "jsd_final": None, "epsilon": None, "rejection_stats": {},
                   "stages": {}, "sha256": "", "problems": problems,
                   "service": service}
        if text is None:
            return outcome
        payload = json.loads(text)
        table_a, table_b = payload["table_a"], payload["table_b"]
        matches, non_matches = payload["matches"], payload.get("non_matches", [])
        problems += check_dataset(n_a, n_b, [r["id"] for r in table_a],
                                  [r["id"] for r in table_b], matches, non_matches)
        result = record["result"]
        health = read_json(result["health_path"], what="job health report")
        stages = {k: v for k, v in _stage_seconds(health).items() if k == "s3"}
        if self.tracer is not None:
            # Shards run in freshly loaded synthesizers whose health records
            # are not kept; the shard spans give S2 instead.
            stages["s2"] = self.tracer.busy(
                "serd.synthesize_shard", (self.tracer.trace_id,))[0]
        outcome.update({
            "n_a": len(table_a), "n_b": len(table_b),
            "jsd_final": result.get("jsd_final"),
            "rejection_stats": dict(result.get("rejection_stats", {})),
            "stages": stages,
            "sha256": dataset_sha256(
                [[r["id"], r["values"]] for r in table_a],
                [[r["id"], r["values"]] for r in table_b], matches, non_matches),
        })
        return outcome

    def label(self, batch) -> list[str]:
        rows_a, rows_b = self.real.table_a.entities, self.real.table_b.entities
        pairs = [[list(rows_a[i].values), list(rows_b[j].values)] for i, j in batch]
        response = self.client.label(self.model, pairs, version=self.label_version)
        return check_labels(len(pairs), response["labels"], response["match_probability"])

    def close(self) -> None:
        self.worker.stop.request("benchmark finished")
        self.thread.join(timeout=60.0)
        self.service.stop(drain_timeout=10.0)
        shutil.rmtree(self.root, ignore_errors=True)
        if self.thread.is_alive():
            raise RuntimeError("service worker thread did not stop")


SESSIONS = {"library": LibrarySession, "service": ServiceSession}
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def set_up(workload: Workload, size: Size, seed: int, out_dir: str, tracer=None):
    """Generate the dataset and open a session; returns it with its seconds."""
    started = time.perf_counter()
    real = load_dataset(workload.dataset, scale=size.scale, seed=DATA_SEED)
    session = SESSIONS[workload.kind](workload, size, real, tracer, seed, out_dir)
    return real, session, time.perf_counter() - started


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def _engine_snapshot() -> dict[str, float]:
    stats = lazy.engine_stats()
    return {
        "trace_hits": stats["trace_caches"]["hits"],
        "trace_misses": stats["trace_caches"]["misses"],
        "trace_evictions": stats["trace_caches"]["evictions"],
        "schedule_hits": stats["schedule_cache"]["hits"],
        "schedule_misses": stats["schedule_cache"]["misses"],
        "artifacts_verified": integrity.counters().get("artifacts_verified", 0),
    }


def _median(values) -> float:
    # Empty only when every operation of its kind failed; the run then
    # reports correct=false and exits non-zero anyway.
    return float(statistics.median(values)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


class Runner:
    """One run of one workload; ``tracer`` is None for the untraced run."""

    def __init__(self, workload: Workload, seed: int, seconds: float, tiny: bool,
                 tracer, out_dir: str, import_s: float, emit):
        self.workload = workload
        self.seed = seed
        self.size = workload.tiny if tiny else workload.full
        self.seconds = seconds
        self.jobs = n_jobs(self.size, seconds)
        self.tracer = tracer
        self.out_dir = out_dir
        self.import_s = import_s
        self.emit = emit
        self.ledger = Ledger()
        self.setup_times: list[float] = []
        self.offline_times: list[float] = []
        self.online_times: list[float] = []
        self.label_ms: list[float] = []
        self.label_failed = 0
        self.prefix_rss_mb = 0.0
        self.jsd: list[float] = []
        self.overhead: list[tuple[float, float]] = []
        self.fit_stages: list[dict] = []
        self.counters = dict.fromkeys((
            "accepted", "evaluated", "fallback", "slots", "trace_hits",
            "trace_misses", "trace_evictions", "schedule_hits", "schedule_misses",
            "artifacts_verified", "epsilon"), 0.0)
        self.stages: dict[str, float] = {}
        self.service: dict[str, float] = {}

    def _set_trace(self, trace_id: str) -> None:
        if self.tracer is not None:
            self.tracer.trace_id = trace_id

    # ------------------------------------------------------------------
    def run(self) -> dict:
        real, session, elapsed = set_up(self.workload, self.size, self.seed,
                                        self.out_dir, self.tracer)
        self.setup_times.append(self.import_s + elapsed)
        try:
            self._loop(session, real)
        finally:
            session.close()
        return self.result()

    def _probe_setup(self) -> None:
        """Time one more set-up, imports included, in a fresh process."""
        command = [sys.executable, RUN_PY, "--workload", self.workload.name,
                   "--seed", str(self.seed), "--seconds", "1", "--setup-probe"]
        if self.size is self.workload.tiny:
            command.append("--tiny")
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        self.setup_times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    def _loop(self, session, real) -> None:
        frac = self.size.job_fraction
        n_a = max(2, round(frac * len(real.table_a)))
        n_b = max(2, round(frac * len(real.table_b)))
        inputs = Inputs(self.seed, self.jobs, self.size, len(real.table_a),
                        len(real.table_b))
        # Fits are spread over the run rather than done up front, and a label
        # burst follows every fit and every job, so that each metric samples
        # the whole run: this host's speed changes every few seconds.
        events = []
        for index, job_seed in enumerate(inputs.job_seeds):
            # ceil((index + 1) F / J) - ceil(index F / J): the first job
            # always has a fit before it.
            fits_due = (-(-(index + 1) * self.size.n_fits // self.jobs)
                        + (index * self.size.n_fits // -self.jobs))
            events += [("fit", None)] * fits_due + [("job", (index, job_seed))]
        bursts = inputs.label_bursts(len(events))
        # The other set-ups run in fresh processes between events, spread
        # over the run like everything else; the traced run reports no
        # setup_s and skips them.
        probes = {k * len(events) // self.size.n_setups
                  for k in range(1, self.size.n_setups)}
        # Every run completes the first min_jobs jobs and the fits before
        # them; peak_rss_mb is read there, so it does not depend on how many
        # more events the host's speed lets into the run.
        prefix = 1 + next(position for position, (kind, job) in enumerate(events)
                          if kind == "job" and job[0] == self.size.min_jobs - 1)
        loop_started = time.perf_counter()
        for position, ((kind, job), burst) in enumerate(zip(events, bursts)):
            if (position >= prefix
                    and time.perf_counter() - loop_started > OVERRUN * self.seconds):
                break
            if position in probes and self.tracer is None:
                self._probe_setup()
            if kind == "fit":
                self._set_trace(f"fit{len(self.offline_times)}")
                started = time.perf_counter()
                self.fit_stages.append(session.fit())
                self.offline_times.append(time.perf_counter() - started)
            else:
                index, job_seed = job
                self._job(index, job_seed, lambda: session.job(job_seed, n_a, n_b))
            for batch in burst:
                self._label(len(self.label_ms), lambda: session.label(batch))
            if position + 1 == prefix:
                self.prefix_rss_mb = _peak_rss_mb()

    def _job(self, index: int, job_seed: int, run_job) -> None:
        try:
            out = self._timed_job(index, run_job)
        except Exception as error:  # noqa: BLE001 - a failed job is counted, not fatal
            self.ledger.record(f"job {index}", [f"{type(error).__name__}: {error}"])
            return
        problems = out["problems"]
        self.ledger.record(f"job {index}", problems)
        self.online_times.append(out["elapsed"])
        if out["jsd_final"] is not None:
            self.jsd.append(float(out["jsd_final"]))
        if out.get("accounted"):
            self._account(out)
        self.emit({
            "job": index, "seed": job_seed, "online_s": out["elapsed"],
            "n_a": out["n_a"], "n_b": out["n_b"], "jsd_final": out["jsd_final"],
            "epsilon": out["epsilon"], "rejection_stats": out["rejection_stats"],
            "sha256": out["sha256"], "problems": problems,
            "peak_rss_mb": _peak_rss_mb(),
        })

    def _timed_job(self, index: int, run_job) -> dict:
        """Run job ``index``; in a traced run, also time it untraced."""
        tracer = self.tracer
        if tracer is None:
            return run_job()
        tracer.trace_id = f"job{index:03d}"
        if index >= OVERHEAD_JOBS:
            return self._traced(run_job)
        # Same seed, same work: alternate which of the two runs goes first
        # so neither always gets the warmer caches.
        results = {}
        for traced in ((True, False) if index % 2 == 0 else (False, True)):
            if traced:
                results[True] = self._traced(run_job)
                continue
            tracer.uninstall()
            try:
                results[False] = run_job()
            finally:
                tracer.install(layers.TARGETS)
        traced_out, plain_out = results[True], results[False]
        self.overhead.append((traced_out["elapsed"], plain_out["elapsed"]))
        if traced_out["sha256"] != plain_out["sha256"]:
            traced_out["problems"].append("traced and untraced runs of one seed differ")
        return traced_out

    def _traced(self, run_job) -> dict:
        before = _engine_snapshot()
        out = run_job()
        after = _engine_snapshot()
        for key, value in after.items():
            self.counters[key] += value - before[key]
        out["accounted"] = True
        return out

    def _account(self, out: dict) -> None:
        stats = out["rejection_stats"]
        accepted = int(stats.get("accepted", 0))
        rejected = int(stats.get("discriminator", 0)) + int(stats.get("distribution", 0))
        fallback = int(stats.get("fallback_accepted", 0))
        self.counters["accepted"] += accepted
        self.counters["evaluated"] += accepted + rejected
        self.counters["fallback"] += fallback
        self.counters["slots"] += accepted + fallback
        if out["epsilon"] is not None:
            self.counters["epsilon"] = float(out["epsilon"])
        for stage, seconds in out["stages"].items():
            self.stages[stage] = self.stages.get(stage, 0.0) + seconds
        for key, value in out.get("service", {}).items():
            self.service[key] = self.service.get(key, 0.0) + value

    def _label(self, index: int, call) -> None:
        self._set_trace(f"label{index:03d}")
        started = time.perf_counter()
        try:
            problems = call()
        except Exception as error:  # noqa: BLE001 - a failed request is counted, not fatal
            problems = [f"{type(error).__name__}: {error}"]
        self.label_ms.append((time.perf_counter() - started) * 1000.0)
        self.ledger.record(f"label {index}", problems)
        self.label_failed += bool(problems)

    # ------------------------------------------------------------------
    def result(self) -> dict:
        """End-to-end metrics, or per-layer ones in a traced run."""
        summary = {
            "workload": self.workload.name, "seed": self.seed, "jobs": self.jobs,
            "label_requests": len(self.label_ms),
            "failed_ops_frac": self.ledger.failed / max(1, self.ledger.attempted),
            "jsd_final_mean": statistics.fmean(self.jsd) if self.jsd else None,
            "jsd_final_jobs": len(self.jsd),
            "label_p50_ms": _percentile(self.label_ms, 50),
            "label_p90_ms": _percentile(self.label_ms, 90),
            "problems": self.ledger.problems,
            "setup_times": self.setup_times,
            "offline_times": self.offline_times,
            "online_times": self.online_times,
        }
        if self.tracer is None:
            values = {
                "setup_s": _median(self.setup_times),
                "offline_s": _median(self.offline_times),
                "online_s": _median(self.online_times),
                "peak_rss_mb": self.prefix_rss_mb,
                "label_p90_ms": summary["label_p90_ms"],
            }
            units = END_TO_END_UNITS
        else:
            values = self._layer_values(summary)
            units = PER_LAYER_UNITS
        self.emit({"summary": summary})
        return {
            "correct": self.ledger.failed == 0 and self.ledger.attempted > 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }

    def _layer_values(self, summary: dict) -> dict:
        stages = dict(self.stages)
        for stage in ("s1", "text", "gan"):
            stages[stage] = _median([f.get(stage, 0.0) for f in self.fit_stages])
        service = dict.fromkeys(SERVICE_KEYS, 0.0)
        if self.workload.kind == "service":
            service.update(self.service)
            service["service.label_sent"] = float(len(self.label_ms))
            service["service.label_failed"] = float(self.label_failed)
        values = layers.layer_metrics(self.tracer, self.counters, stages, service)
        values["serd.jsd_final"] = summary["jsd_final_mean"] or 0.0
        values["label.p50_ms"] = summary["label_p50_ms"]
        values["label.p90_ms"] = summary["label_p90_ms"]
        traced = sum(t for t, _ in self.overhead)
        plain = sum(p for _, p in self.overhead)
        values["trace.overhead_ratio"] = traced / plain if plain else 0.0
        summary["layer_mix"] = layers.layer_mix(self.tracer, values, sum(self.online_times))
        summary["counters"] = dict(self.counters)
        return values


# label_p50_ms is in the summary and the traced run but not bounded here:
# for sub-millisecond in-process label calls it jumps between this host's
# two speed states (0.7 or 1.2 ms on restaurant-dp-transformer), which gave
# an IQR/median of 0.39 across ten seeds; p90 sits in the slow state.
END_TO_END_UNITS = {
    "setup_s": "s", "offline_s": "s", "online_s": "s", "peak_rss_mb": "MB",
    "label_p90_ms": "ms",
}
SERVICE_KEYS = (
    "service.queue_wait_s", "service.worker_busy_s", "service.download_s",
    "service.poll_overhead_s", "service.jobs_sent", "service.jobs_failed",
    "service.label_sent", "service.label_failed",
)


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "labeling.s":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return {"privacy.epsilon": "eps", "serd.jsd_final": "nat"}.get(name, "count")


PER_LAYER_NAMES = (
    "serd.s1_s", "serd.text_s", "serd.gan_s", "serd.s2_s", "serd.s3_s", "serd.jsd_final",
    "rejection.evaluate_calls", "rejection.evaluate_s", "rejection.accept_ratio",
    "rejection.fallback_frac",
    "distributions.jsd_calls", "distributions.jsd_s", "distributions.tracker_update_s",
    "distributions.posterior_s", "distributions.gmm_fit_s",
    "gan.fit_s", "gan.discriminator_calls", "gan.discriminator_s",
    "synthesis.entity_calls", "synthesis.entity_s", "textgen.rules_s",
    "textgen.transformer_fit_s", "textgen.transformer_synth_s",
    "nn.decode_tokens", "nn.decode_tokens_per_s", "nn.trace_hit_ratio",
    "nn.trace_evictions", "nn.schedule_hit_ratio",
    "privacy.dpsgd_steps", "privacy.dpsgd_s", "privacy.audit_s", "privacy.epsilon",
    "similarity.one_vs_many_calls", "similarity.one_vs_many_s",
    "similarity.vectors_pairs", "similarity.vectors_s",
    "labeling.pairs", "labeling.s", "labeling.pairs_per_s",
    "runtime.json_writes", "runtime.json_write_s", "runtime.checkpoint_commits",
    "runtime.checkpoint_s", "runtime.artifacts_verified",
    "schema.export_s", "schema.export_mb",
    "service.register_s", "service.model_load_s", *SERVICE_KEYS,
    "label.p50_ms", "label.p90_ms", "trace.overhead_ratio",
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER_NAMES}
