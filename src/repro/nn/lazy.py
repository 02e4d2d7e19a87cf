"""Zero-count engine telemetry, kept only for the frozen benchmark harness.

``perfbench/workloads.py`` imports this module and reads
``engine_stats()["trace_caches"|"schedule_cache"]``.  ``repro.nn`` runs every
op eagerly, so every count is zero.  Nothing in ``src/`` imports this module;
delete it once the harness drops the import.
"""


def engine_stats() -> dict:
    zero = {"entries": 0, "hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}
    return {
        "enabled": False,
        "schedule_cache": dict(zero, capacity=0),
        "trace_caches": zero,
    }
