"""Resilient pipeline runtime: checkpoints, numeric guards, health, faults.

The SERD offline phase chains four expensive, failure-prone stages (GMM EM,
DP text-model training, GAN training, the iterative S2 loop).  This package
makes that pipeline survivable:

- :mod:`repro.runtime.io` — atomic (tmp + ``os.replace``) file writes;
- :mod:`repro.runtime.checkpoint` — named, durable stage checkpoints with
  RNG-stream capture, so ``resume`` reproduces uninterrupted runs exactly;
- :mod:`repro.runtime.counters` — the thread-safe event-counter registry
  behind the integrity, resource and privacy-audit ``/stats`` blocks;
- :mod:`repro.runtime.guards` — NaN/Inf detection with bounded
  rollback-and-retry for training loops;
- :mod:`repro.runtime.health` — the per-stage health report surfaced on
  :class:`~repro.core.serd.SynthesisOutput`;
- :mod:`repro.runtime.faults` — the deterministic fault-injection harness
  used by the ``fault_injection`` test suite;
- :mod:`repro.runtime.cancellation` — cooperative stop tokens so SIGTERM'd
  runs commit their checkpoint and exit resumable instead of dying mid-write;
- :mod:`repro.runtime.integrity` — SHA-256 envelopes on every JSON artifact,
  typed :class:`~repro.runtime.integrity.CorruptArtifactError` + quarantine
  on verification failure, and the ``repro verify-artifacts`` scrubber;
- :mod:`repro.runtime.resources` — memory/disk budgets with watermark
  sampling, the chunk-size degradation ladder, disk preflight before
  durable commits, and typed
  :class:`~repro.runtime.resources.ResourceExhausted` routing to
  checkpoint-and-release;
- :mod:`repro.runtime.chaos` — deterministic multi-fault chaos campaigns
  (``repro chaos run``) composing every fault family against a live
  service with correctness invariants checked between rounds.
"""

from repro.runtime.cancellation import (
    CancellationToken,
    LinkedCancellationToken,
    SynthesisInterrupted,
    install_signal_handlers,
)
from repro.runtime.checkpoint import StageCheckpointer, restore_rng, rng_state
from repro.runtime.counters import Counters
from repro.runtime.guards import DivergenceError, TrainingGuard, all_finite
from repro.runtime.health import (
    COMPLETED,
    DEGRADED,
    FAILED,
    PENDING,
    RESUMED,
    RUNNING,
    HealthReport,
    StageHealth,
)
from repro.runtime.io import (
    as_path,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    read_json,
)
from repro.runtime.faults import (
    DiskFault,
    FaultPlan,
    FaultSpec,
    InjectedInterrupt,
    NetFault,
    inject_faults,
)
from repro.runtime.integrity import (
    CorruptArtifactError,
    quarantine_artifact,
    scrub_tree,
)
from repro.runtime.resources import (
    ResourceBudget,
    ResourceExhausted,
    ResourceGovernor,
)

__all__ = [
    "CancellationToken",
    "LinkedCancellationToken",
    "SynthesisInterrupted",
    "install_signal_handlers",
    "StageCheckpointer",
    "rng_state",
    "restore_rng",
    "Counters",
    "DivergenceError",
    "TrainingGuard",
    "all_finite",
    "HealthReport",
    "StageHealth",
    "PENDING",
    "RUNNING",
    "COMPLETED",
    "RESUMED",
    "DEGRADED",
    "FAILED",
    "as_path",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "read_json",
    "DiskFault",
    "NetFault",
    "FaultPlan",
    "FaultSpec",
    "InjectedInterrupt",
    "inject_faults",
    "CorruptArtifactError",
    "quarantine_artifact",
    "scrub_tree",
    "ResourceBudget",
    "ResourceExhausted",
    "ResourceGovernor",
]
