"""Process-local event counters, the one shape behind every ``/stats`` block."""

from __future__ import annotations

import threading


class Counters:
    """A thread-safe ``name -> count`` registry.

    ``snapshot()`` always carries the ``defaults`` keys (zero until first
    counted), so readers see a stable schema before any event fires.
    """

    def __init__(self, *defaults: str):
        self._defaults = defaults
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            snapshot = dict(self._counts)
        for key in self._defaults:
            snapshot.setdefault(key, 0)
        return snapshot

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
