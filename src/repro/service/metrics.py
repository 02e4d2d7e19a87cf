"""Thread-safe request/worker metrics behind the ``/stats`` endpoint.

Counters are plain monotone integers (requests per route, worker restarts,
jobs completed); observations are bounded reservoirs that keep the last
``window`` samples and report count/mean/min/max/p50/p95 — enough to watch
queue latency and label batch sizes without a metrics dependency.
"""

from __future__ import annotations

import threading
import time
from collections import deque


class ServiceMetrics:
    """Counters + bounded sample reservoirs, safe under server threads."""

    def __init__(self, window: int = 1024):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._samples: dict[str, deque[float]] = {}
        self._window = int(window)
        self.started_unix = time.time()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            reservoir = self._samples.get(name)
            if reservoir is None:
                reservoir = self._samples[name] = deque(maxlen=self._window)
            reservoir.append(float(value))

    @staticmethod
    def _summarize(values: list[float]) -> dict:
        values = sorted(values)
        n = len(values)

        def pct(q: float) -> float:
            return values[min(n - 1, int(q * n))]

        return {
            "count": n,
            "mean": sum(values) / n,
            "min": values[0],
            "max": values[-1],
            "p50": pct(0.50),
            "p95": pct(0.95),
        }

    def snapshot(self) -> dict:
        """Point-in-time view: counters verbatim, reservoirs summarized."""
        with self._lock:
            counters = dict(self._counters)
            samples = {k: list(v) for k, v in self._samples.items()}
        return {
            "uptime_seconds": time.time() - self.started_unix,
            "counters": counters,
            "observations": {
                name: self._summarize(values)
                for name, values in samples.items()
                if values
            },
        }
