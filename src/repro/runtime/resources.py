"""Resource governor: memory budgets, disk preflight, degradation ladders.

Nothing in the pipeline bounded memory or disk before this module: a worker
handed an oversized shard OOMed and was rescued only by lease-steal after
the fact, and an ENOSPC burst was survived per-write (atomic writes leave
old-or-new state) but never *anticipated*.  The governor closes both gaps
with watermarks checked at the places the pipeline already pauses:

- **Memory.**  ``sample_memory()`` runs at the existing S2 checkpoint
  boundary and before S3 labeling.  The observed figure is the max of the
  process RSS (``/proc/self/statm`` where available, ``ru_maxrss`` as the
  portable fallback) and an *allocation estimate* — entity count times
  ``entity_est_kb`` — so a shard whose working set will not fit is caught
  before the allocator feels it.  Crossing the soft watermark
  (``memory_soft_fraction`` x budget) tells the caller to shrink its chunk
  size; crossing the budget itself is "hard".  The degradation ladder in
  the S2 loop shrinks first and only raises :class:`ResourceExhausted`
  when shrinking is exhausted — and it raises *after* committing the
  progress checkpoint, so the worker releases the job resumable
  (PR 2's checkpoint-and-release rails) instead of dead-lettering it.

- **Disk.**  ``preflight_disk()`` runs inside
  :func:`repro.runtime.io.atomic_write_bytes` and the queue's raw
  job-record creation — i.e. before every durable commit.  Free space
  below the low-water mark refuses the write with
  :class:`ResourceExhausted` (an anticipated failure, unlike the ENOSPC
  the write itself would hit); between low and high water it only counts
  a warning, giving operators headroom to react via ``/stats`` and the
  now-degraded ``GET /health``.

The module-global install mirrors :mod:`repro.runtime.faults`: production
hooks pay one attribute load when no governor is armed.  Counters are
process-global (like :mod:`repro.runtime.integrity`) so ``/stats``, health
reports and job results can surface them without plumbing the governor
through every signature.

Both samplers pass their reading through fault sites (``resource.rss_kb``
and ``resource.disk_free_mb``) so tests and chaos campaigns can simulate
deterministic pressure without actually exhausting the machine.
"""

from __future__ import annotations

import math
import os
import pathlib
import threading

from repro.runtime import faults
from repro.runtime.counters import Counters

#: Hard floor for governed chunk sizes — shrinking below this buys nothing
#: (checkpoint commits would dominate) and risks a zero-size loop.
MIN_CHUNK = 1

#: Floor for the S3 labeling batch: the kernel path needs a few pairs per
#: call to amortize, and the batch size never changes the labels produced.
MIN_LABEL_BATCH = 64


class ResourceExhausted(RuntimeError):
    """A resource budget was breached and degradation could not absorb it.

    ``kind`` is ``"memory"`` or ``"disk"``.  Deliberately *not* an
    ``OSError``: the worker maps it to checkpoint-and-release (an operator
    problem should not burn the job's attempt budget toward the DLQ), and
    the API maps it to a retryable 503 — both distinct from the
    storage-error path real ``OSError`` takes.
    """

    def __init__(
        self,
        kind: str,
        message: str,
        *,
        budget_mb: float | None = None,
        observed_mb: float | None = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.budget_mb = budget_mb
        self.observed_mb = observed_mb


def _default_entity_est_kb() -> float:
    """Per-entity working-set estimate (KB) for the allocation watermark.

    The default is a deliberately small heuristic — a synthetic entity is a
    short tuple of field values plus tracker bookkeeping — so the estimate
    only dominates the RSS reading for genuinely enormous shards.  Chaos
    campaigns inflate it via ``REPRO_ENTITY_EST_KB`` to drive the watermark
    deterministically without allocating gigabytes in CI.
    """
    try:
        return float(os.environ.get("REPRO_ENTITY_EST_KB", 2.0))
    except ValueError:
        return 2.0


class ResourceBudget:
    """Configured limits; ``None`` disables the corresponding watermark."""

    def __init__(
        self,
        *,
        memory_budget_mb: float | None = None,
        disk_low_water_mb: float | None = None,
        disk_high_water_mb: float | None = None,
        memory_soft_fraction: float = 0.8,
        max_downshifts: int = 10,
        entity_est_kb: float | None = None,
    ):
        self.memory_budget_mb = (
            float(memory_budget_mb) if memory_budget_mb is not None else None
        )
        self.disk_low_water_mb = (
            float(disk_low_water_mb) if disk_low_water_mb is not None else None
        )
        self.disk_high_water_mb = (
            float(disk_high_water_mb)
            if disk_high_water_mb is not None
            else (2.0 * self.disk_low_water_mb if self.disk_low_water_mb else None)
        )
        self.memory_soft_fraction = float(memory_soft_fraction)
        self.max_downshifts = int(max_downshifts)
        self.entity_est_kb = (
            float(entity_est_kb)
            if entity_est_kb is not None
            else _default_entity_est_kb()
        )
        if self.memory_budget_mb is not None and self.memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be positive")
        if self.disk_low_water_mb is not None and self.disk_low_water_mb < 0:
            raise ValueError("disk_low_water_mb must be non-negative")
        if not 0.0 < self.memory_soft_fraction <= 1.0:
            raise ValueError("memory_soft_fraction must be in (0, 1]")

    @property
    def soft_memory_mb(self) -> float | None:
        if self.memory_budget_mb is None:
            return None
        return self.memory_soft_fraction * self.memory_budget_mb


def current_rss_kb() -> int:
    """This process's resident set in KB (current, not peak).

    ``ru_maxrss`` is monotone — useless for watching pressure *recede* —
    so prefer ``/proc/self/statm`` where the platform has it.  The reading
    passes through the ``resource.rss_kb`` fault site so tests can
    substitute deterministic pressure.
    """
    rss_kb = 0
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        rss_kb = int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        try:
            import resource as _resource

            rss_kb = int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
        except Exception:  # pragma: no cover - no rusage on this platform
            rss_kb = 0
    injected = faults.corrupt("resource.rss_kb", rss_kb)
    try:
        injected = int(injected)
    except (TypeError, ValueError):
        return rss_kb
    return injected if injected >= 0 else rss_kb


def disk_free_mb(path: str | os.PathLike) -> float | None:
    """Free space (MB) on the filesystem holding ``path``; None if unknown.

    Walks up to the nearest existing ancestor so preflight works for
    directories that have not been created yet.  The reading passes
    through the ``resource.disk_free_mb`` fault site.
    """
    probe = pathlib.Path(path)
    while not probe.exists():
        parent = probe.parent
        if parent == probe:
            return None
        probe = parent
    try:
        stats = os.statvfs(probe)
    except (OSError, AttributeError):  # pragma: no cover - no statvfs
        return None
    free = stats.f_bavail * stats.f_frsize / (1024.0 * 1024.0)
    injected = faults.corrupt("resource.disk_free_mb", free)
    try:
        injected = float(injected)
    except (TypeError, ValueError):
        return free
    return injected if math.isfinite(injected) and injected >= 0 else free


class ResourceGovernor:
    """Watermark sampling + degradation policy over one :class:`ResourceBudget`.

    The governor is stateless about *how far* a given run has degraded —
    downshift counts live in the loop that owns the chunk size, so one
    pathological job cannot permanently shrink every later job in the
    worker process.  The governor only samples, classifies, and counts.
    """

    def __init__(self, budget: ResourceBudget | None = None):
        self.budget = budget or ResourceBudget()
        self._lock = threading.Lock()
        self._peak_rss_kb = 0
        self._peak_observed_mb = 0.0

    # -- memory --------------------------------------------------------
    def sample_memory(self, *, entities: int | None = None) -> str:
        """Classify current pressure: ``"ok"``, ``"soft"``, or ``"hard"``.

        ``entities`` feeds the allocation-estimate watermark; the observed
        figure is ``max(rss, entities * entity_est_kb)`` so either a real
        resident set or a predicted working set can trip the budget.
        """
        rss_kb = current_rss_kb()
        observed_mb = rss_kb / 1024.0
        if entities is not None and entities > 0:
            observed_mb = max(
                observed_mb, entities * self.budget.entity_est_kb / 1024.0
            )
        with self._lock:
            self._peak_rss_kb = max(self._peak_rss_kb, rss_kb)
            self._peak_observed_mb = max(self._peak_observed_mb, observed_mb)
        budget_mb = self.budget.memory_budget_mb
        if budget_mb is None:
            return "ok"
        if observed_mb > budget_mb:
            count_event("memory_hard_trips")
            return "hard"
        soft = self.budget.soft_memory_mb
        if soft is not None and observed_mb > soft:
            count_event("memory_soft_trips")
            return "soft"
        return "ok"

    def peak_rss_kb(self) -> int:
        with self._lock:
            return self._peak_rss_kb

    def peak_observed_mb(self) -> float:
        with self._lock:
            return self._peak_observed_mb

    def max_shard_entities(self) -> int | None:
        """Per-shard entity cap derived from the memory budget.

        Half the soft watermark is granted to entity pools (the other half
        covers trackers, similarity profiles and the interpreter itself).
        The coordinator splits any shard whose slice exceeds this instead
        of letting it OOM-and-retry into the DLQ.
        """
        soft = self.budget.soft_memory_mb
        if soft is None or self.budget.entity_est_kb <= 0:
            return None
        return max(1, int(0.5 * soft * 1024.0 / self.budget.entity_est_kb))

    # -- disk ----------------------------------------------------------
    def disk_status(self, path: str | os.PathLike) -> dict | None:
        """Free/low/high readings for ``path``; None when unconfigured."""
        low = self.budget.disk_low_water_mb
        if low is None:
            return None
        free = disk_free_mb(path)
        if free is None:
            return None
        return {
            "free_mb": round(free, 3),
            "low_water_mb": low,
            "high_water_mb": self.budget.disk_high_water_mb,
            "low": free < low,
        }

    def preflight_disk(
        self, path: str | os.PathLike, *, what: str = "durable write"
    ) -> None:
        """Refuse a durable commit when free space is below the low-water mark.

        Raising *before* the write keeps the failure anticipated and typed
        (vs. the raw ENOSPC the write would hit mid-flush); between low
        and high water only a warning counter ticks.
        """
        status = self.disk_status(path)
        if status is None:
            return
        if status["low"]:
            count_event("disk_preflight_rejections")
            raise ResourceExhausted(
                "disk",
                f"refusing {what}: {status['free_mb']:.1f} MB free at "
                f"{path} is below the {status['low_water_mb']:g} MB "
                "low-water mark",
                budget_mb=status["low_water_mb"],
                observed_mb=status["free_mb"],
            )
        high = status["high_water_mb"]
        if high is not None and status["free_mb"] < high:
            count_event("disk_high_water_warnings")

    # -- reporting -----------------------------------------------------
    def snapshot(self, roots: dict[str, os.PathLike] | None = None) -> dict:
        """JSON-able state for ``/stats`` and health reports."""
        payload = {
            "counters": counters(),
            "rss_mb": round(current_rss_kb() / 1024.0, 3),
            "peak_rss_mb": round(self.peak_rss_kb() / 1024.0, 3),
            "peak_observed_mb": round(self.peak_observed_mb(), 3),
            "memory_budget_mb": self.budget.memory_budget_mb,
            "memory_soft_mb": self.budget.soft_memory_mb,
            "entity_est_kb": self.budget.entity_est_kb,
        }
        if roots:
            payload["disk"] = {}
            for name, root in roots.items():
                status = self.disk_status(root)
                if status is None:
                    free = disk_free_mb(root)
                    status = {"free_mb": round(free, 3)} if free is not None else None
                payload["disk"][name] = status
        return payload


# ----------------------------------------------------------------------
# Counters (process-global; surfaced through /stats, health, job results)
# ----------------------------------------------------------------------
_COUNTERS = Counters(
    "memory_soft_trips",
    "memory_hard_trips",
    "chunk_downshifts",
    "disk_preflight_rejections",
    "disk_high_water_warnings",
    "jobs_released_on_exhaustion",
    "shards_split_oversized",
)
count_event = _COUNTERS.count
counters = _COUNTERS.snapshot
reset_counters = _COUNTERS.reset


# ----------------------------------------------------------------------
# Module-global install (the faults.py pattern: one attribute load when
# disarmed, so every durable write can afford the hook)
# ----------------------------------------------------------------------
_ACTIVE: ResourceGovernor | None = None


def install(governor: ResourceGovernor) -> ResourceGovernor:
    """Arm ``governor`` process-wide (serve/worker startup); returns it."""
    global _ACTIVE
    _ACTIVE = governor
    return governor


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def installed() -> ResourceGovernor | None:
    return _ACTIVE


def governor_from_flags(
    memory_budget_mb: float | None, disk_low_water_mb: float | None
) -> ResourceGovernor | None:
    """Build a governor from the CLI flags; None when neither is set."""
    if memory_budget_mb is None and disk_low_water_mb is None:
        return None
    return ResourceGovernor(
        ResourceBudget(
            memory_budget_mb=memory_budget_mb,
            disk_low_water_mb=disk_low_water_mb,
        )
    )


def preflight(path: str | os.PathLike, *, what: str = "durable write") -> None:
    """Disk preflight hook for durable commit sites; no-op when disarmed."""
    if _ACTIVE is None:
        return
    _ACTIVE.preflight_disk(path, what=what)


def effective_label_batch(base: int) -> int:
    """Governed S3 labeling batch size (output-invariant; peak-RSS only).

    Samples the memory watermark once and halves the batch per pressure
    level.  The labels produced never depend on the batch size — only the
    peak working set does — so shrinking here is always safe.
    """
    if _ACTIVE is None:
        return base
    level = _ACTIVE.sample_memory()
    if level == "ok":
        return base
    shift = 1 if level == "soft" else 2
    shrunk = max(MIN_LABEL_BATCH, base >> shift)
    if shrunk < base:
        count_event("chunk_downshifts")
    return shrunk
