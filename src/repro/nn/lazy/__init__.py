"""Lazy op-graph engine for ``repro.nn`` — switch, cache, and realizer.

When enabled (the default), :class:`repro.nn.tensor.Tensor` ops that do
not require grad record :class:`~repro.nn.lazy.graph.LazyNode` DAGs
instead of executing; accessing ``.data`` realizes the pending graph
through a fused, shape-keyed schedule cache (see
:mod:`~repro.nn.lazy.fusion` / :mod:`~repro.nn.lazy.realize`).  Grad-
tracked forwards always run eagerly, so autograd and the per-sample
gradient instrumentation are untouched.

Eager mode is the bit-level equivalence oracle (and autograd's path):
select it with the ``REPRO_NN_LAZY=0`` environment variable,
:func:`set_enabled`, or the :func:`disabled` context manager.  The flag
is process-global because the decode loop realizes thousands of graphs
per synthesized entity, and nobody tunes laziness per-call.

Plan-cache capacity is ``REPRO_NN_PLAN_CACHE`` (default 256, bounded
LRU); hit/miss/eviction counters surface in ``/stats`` under
``nn_engine`` and via ``repro nn-plans dump``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .cache import ScheduleCache
from .graph import LazyNode
from .realize import SCHEDULE_CACHE, KernelFault, realize

__all__ = [
    "KernelFault",
    "LazyNode",
    "SCHEDULE_CACHE",
    "ScheduleCache",
    "cache_stats",
    "clear_cache",
    "disabled",
    "enabled",
    "engine_stats",
    "jit",
    "plan_entries",
    "realize",
    "set_enabled",
]

_ENABLED = os.environ.get("REPRO_NN_LAZY", "1").strip().lower() not in (
    "0",
    "false",
    "no",
    "off",
)


def enabled() -> bool:
    """Whether ops record lazy graphs (grad-free paths only)."""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    global _ENABLED
    _ENABLED = bool(flag)


@contextmanager
def disabled():
    """Run a block on the eager reference engine (oracle / baseline timing)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def cache_stats() -> dict:
    """Schedule-cache counters (hits/misses/evictions/hit_rate/entries)."""
    return SCHEDULE_CACHE.stats()


def clear_cache() -> None:
    SCHEDULE_CACHE.clear()


def plan_entries() -> list[dict]:
    """Describe every cached plan (``repro nn-plans dump``)."""
    return SCHEDULE_CACHE.entries()


def engine_stats() -> dict:
    """Full engine telemetry: realize-path schedule cache + JIT trace caches.

    This is what the service ``/stats`` endpoint surfaces under
    ``nn_engine`` and what ``repro nn-plans dump`` prints.
    """
    from . import jit  # noqa: PLC0415 - keep package import light

    return {
        "enabled": enabled(),
        "schedule_cache": cache_stats(),
        "trace_caches": jit.registered_stats(),
    }
