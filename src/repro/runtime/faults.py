"""Deterministic fault injection for the pipeline runtime.

Tests (and chaos-style smoke runs) arm a :class:`FaultPlan` naming *sites* —
string labels compiled into the production code at its failure-prone points —
and the call index at which each fault fires.  Because triggering is purely
call-count based, a plan is deterministic: the same plan against the same
seeded run injects the same fault at the same moment every time, which is
what lets the checkpoint/resume tests assert bit-identical recovery.

Production code guards every hook behind ``if _ACTIVE is not None``, so the
harness costs one attribute load per site when disarmed.

Sites currently compiled in:

- ``gan.nan_grad`` — poison a discriminator gradient with NaN before the
  optimizer step (:mod:`repro.gan.training`).
- ``transformer.nan_loss`` — corrupt a bucket-training loss to NaN
  (:mod:`repro.textgen.transformer_backend`).
- ``em.nan`` — corrupt the EM log-likelihood to NaN, simulating a collapsed
  / singular component (:mod:`repro.distributions.gmm`).
- ``fit.after_s1`` / ``fit.after_text`` / ``fit.after_gan`` — interrupt
  ``SERDSynthesizer.fit`` after the named stage committed its checkpoint.
- ``synthesize.step`` — interrupt the S2 loop at the Nth accepted entity.
- ``synthesize.stall`` — hang the S2 loop at the Nth step (the payload is a
  blocking callable supplied by the test); the worker keeps heartbeating
  while making no progress, which is the stall-watchdog scenario.
- ``io.write`` / ``io.fsync`` / ``io.rename`` — disk faults inside
  :func:`repro.runtime.io.atomic_write_bytes`: ENOSPC mid-write (half the
  payload reaches the temp file first, simulating a torn write), fsync
  failure, and a failed ``os.replace``.  The payload may be an ``errno``
  integer (default ``ENOSPC``).
- ``queue.claim.write`` / ``queue.claim.fsync`` / ``queue.claim.steal`` /
  ``queue.submit.write`` — the same disk faults inside the job queue's
  claim acquisition, stale-lease steal, and idempotent job-record creation
  (:mod:`repro.service.queue`).
- ``registry.publish`` — fail the atomic staging→version rename that
  publishes a model version (:mod:`repro.service.registry`).
- ``net.request`` — connection reset before the request body is sent
  (:meth:`repro.service.client.ServiceClient._request_once` and
  ``dataset_stream``).  The payload may be an exception instance or class
  to raise instead of the default :class:`NetFault`.
- ``net.response.body`` — garble a buffered response body in the client
  (the payload is a ``bytes -> bytes`` callable applied via
  :func:`transform`).
- ``net.stream.read`` / ``net.stream.chunk`` — reset mid-stream / garble
  one decoded chunk inside ``ServiceClient.dataset_stream``.
- ``net.stream.server_truncate`` / ``net.stream.server_garble`` — on the
  *server* side of the chunked dataset export: drop the connection without
  the terminal chunk, or corrupt one fragment in flight.  The garble case
  produces a byte-for-byte valid chunked body whose content is wrong —
  only the trailing checksum record catches it.
- ``clock.skew`` — bias every wall-clock read in the job queue's lease
  arithmetic by the payload (seconds, may be negative), simulating a
  machine whose clock drifts from its peers' (``repro.service.queue._now``).
- ``resource.rss_kb`` / ``resource.disk_free_mb`` — substitute the resource
  governor's RSS / free-disk readings (:mod:`repro.runtime.resources`), so
  tests drive the memory degradation ladder and the disk low-water
  preflight without actually exhausting the machine.

Usage::

    plan = FaultPlan(FaultSpec("gan.nan_grad", at_calls=(3, 4)))
    with inject_faults(plan):
        synthesizer.fit(real)
    assert plan.fired("gan.nan_grad") == 2
"""

from __future__ import annotations

import errno as _errno
from contextlib import contextmanager
from dataclasses import dataclass, field


class InjectedInterrupt(RuntimeError):
    """Raised by interrupt sites to simulate a mid-run crash/kill."""

    def __init__(self, site: str):
        super().__init__(f"injected interrupt at {site}")
        self.site = site


class DiskFault(OSError):
    """An injected disk failure (ENOSPC, failed fsync, failed rename).

    Subclasses :class:`OSError` so production error handling that already
    copes with real disk errors exercises the identical code path; carries
    the fault ``site`` so tests can assert where it fired.
    """

    def __init__(self, site: str, errno_value: int = _errno.ENOSPC):
        name = _errno.errorcode.get(errno_value, str(errno_value))
        super().__init__(
            errno_value, f"injected disk fault at {site} ({name})"
        )
        self.site = site


class NetFault(OSError):
    """An injected network failure (connection reset, mid-stream drop).

    Subclasses :class:`OSError` — exactly what ``urllib`` surfaces for a
    real peer reset — so the client's transport-retry path handles the
    injected fault through the identical ``except`` clause.
    """

    def __init__(self, site: str, message: str = "injected network fault"):
        super().__init__(f"{message} at {site}")
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """One fault: fire at the given 1-based call indices of ``site``.

    ``at_calls=()`` means *every* call fires.  ``payload`` is what
    :func:`corrupt` substitutes for the real value (defaults to NaN).
    """

    site: str
    at_calls: tuple[int, ...] = ()
    payload: object = float("nan")


@dataclass
class FaultPlan:
    """A set of armed faults plus per-site call counters."""

    specs: tuple[FaultSpec, ...]
    _calls: dict[str, int] = field(default_factory=dict)
    _fired: dict[str, int] = field(default_factory=dict)

    def __init__(self, *specs: FaultSpec):
        self.specs = tuple(specs)
        self._calls = {}
        self._fired = {}
        sites = [s.site for s in specs]
        if len(sites) != len(set(sites)):
            raise ValueError(f"duplicate fault sites in plan: {sites}")

    def _spec_for(self, site: str) -> FaultSpec | None:
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None

    def check(self, site: str) -> FaultSpec | None:
        """Count one call of ``site``; return the spec if the fault fires."""
        spec = self._spec_for(site)
        if spec is None:
            return None
        count = self._calls.get(site, 0) + 1
        self._calls[site] = count
        if spec.at_calls and count not in spec.at_calls:
            return None
        self._fired[site] = self._fired.get(site, 0) + 1
        return spec

    def calls(self, site: str) -> int:
        """How many times ``site`` was reached."""
        return self._calls.get(site, 0)

    def fired(self, site: str) -> int:
        """How many times the fault at ``site`` actually triggered."""
        return self._fired.get(site, 0)


_ACTIVE: FaultPlan | None = None


@contextmanager
def inject_faults(plan: FaultPlan):
    """Arm ``plan`` for the duration of the block (not thread-safe by design:
    fault injection is a test-harness facility)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault plan is already active; plans do not nest")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None


def active() -> FaultPlan | None:
    return _ACTIVE


def fire(site: str) -> bool:
    """True when an armed fault at ``site`` triggers on this call."""
    if _ACTIVE is None:
        return False
    return _ACTIVE.check(site) is not None


def corrupt(site: str, value):
    """Return ``value``, or the fault payload when ``site`` triggers."""
    if _ACTIVE is None:
        return value
    spec = _ACTIVE.check(site)
    return value if spec is None else spec.payload


def maybe_interrupt(site: str) -> None:
    """Raise :class:`InjectedInterrupt` when an armed interrupt triggers."""
    if _ACTIVE is None:
        return
    if _ACTIVE.check(site) is not None:
        raise InjectedInterrupt(site)


def maybe_disk_fault(site: str, *, partial=None) -> None:
    """Raise :class:`DiskFault` when an armed disk fault at ``site`` triggers.

    ``partial`` (a zero-argument callable) runs just before the raise to
    simulate the bytes that made it to disk before the failure — e.g. half
    of a payload for a torn-write scenario.  The spec's payload, when it is
    an ``int``, selects the errno (default ``ENOSPC``).
    """
    if _ACTIVE is None:
        return
    spec = _ACTIVE.check(site)
    if spec is None:
        return
    if partial is not None:
        partial()
    errno_value = spec.payload if isinstance(spec.payload, int) else _errno.ENOSPC
    raise DiskFault(site, errno_value)


def maybe_net_fault(site: str) -> None:
    """Raise a network fault when an armed ``net.*`` site triggers.

    The spec's payload selects the exception: an instance is raised as-is,
    an exception class is instantiated with a descriptive message, and
    anything else (including the default NaN payload) raises
    :class:`NetFault` — an ``OSError``, i.e. a connection reset.
    """
    if _ACTIVE is None:
        return
    spec = _ACTIVE.check(site)
    if spec is None:
        return
    payload = spec.payload
    if isinstance(payload, BaseException):
        raise payload
    if isinstance(payload, type) and issubclass(payload, BaseException):
        raise payload(f"injected network fault at {site}")
    raise NetFault(site)


def transform(site: str, value):
    """Pass ``value`` through the fault payload when ``site`` triggers.

    The payload, when callable, maps the real value to the corrupted one
    (e.g. flip bytes in a chunk); a non-callable payload replaces the value
    outright.  Disarmed or non-firing sites return ``value`` unchanged.
    """
    if _ACTIVE is None:
        return value
    spec = _ACTIVE.check(site)
    if spec is None:
        return value
    return spec.payload(value) if callable(spec.payload) else spec.payload


def maybe_stall(site: str) -> None:
    """Block inside ``site`` when an armed stall triggers.

    The spec's payload must be a blocking callable (typically an
    ``Event.wait`` bound method supplied by the test); the production code
    simply stops making progress while its other threads — heartbeats in
    particular — keep running.  That is exactly the hung-but-heartbeating
    worker the stall watchdog exists to catch.
    """
    if _ACTIVE is None:
        return
    spec = _ACTIVE.check(site)
    if spec is not None and callable(spec.payload):
        spec.payload()
