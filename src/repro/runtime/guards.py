"""Numeric-failure guards for iterative training loops.

DP-noised and adversarial training are numerically fragile (SafeSynthDP,
PAPERS.md): one NaN in an Adam step silently poisons every later iterate.
:class:`TrainingGuard` wraps a training loop with the standard containment
protocol:

1. **snapshot** — periodically capture the last-known-good weights and
   optimizer state;
2. **check** — after each step, test losses / gradients / parameters for
   NaN or Inf;
3. **rollback** — on a bad step, restore the snapshot, decay the learning
   rate, and retry; after ``max_retries`` rollbacks raise
   :class:`DivergenceError` so the caller can degrade gracefully (e.g. the
   transformer text backend falls back to the rule backend).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.nn.layers import Module
from repro.nn.optim import Adam, grads_finite


class DivergenceError(RuntimeError):
    """Training kept producing non-finite numbers after bounded retries."""

    def __init__(self, label: str, retries: int):
        super().__init__(
            f"{label}: training diverged (non-finite loss/gradients) and did "
            f"not recover after {retries} rollback retries"
        )
        self.label = label
        self.retries = retries


def all_finite(*values) -> bool:
    """True when every scalar/array argument contains only finite numbers."""
    for value in values:
        if value is None:
            continue
        if isinstance(value, (int, float)):
            if not math.isfinite(value):
                return False
        elif not bool(np.isfinite(np.asarray(value)).all()):
            return False
    return True


class TrainingGuard:
    """Rollback-and-retry protection for one training loop.

    Parameters
    ----------
    modules:
        Modules whose weights are snapshot, checked and restored.  The guard
        walks only the parameters no optimizer steps (DP-SGD updates weights
        itself); the rest go through their optimizer.
    optimizers:
        Optimizers whose weights, gradients and state (moments, step count,
        learning rate) are snapshot and checked through their flat buffers;
        their learning rates are decayed by ``lr_decay`` on every rollback.
    max_retries:
        Rollbacks allowed before :class:`DivergenceError`.
    lr_decay:
        Multiplicative learning-rate decay per rollback.
    label:
        Name used in errors and health counters.
    """

    def __init__(
        self,
        modules: Iterable[Module],
        optimizers: Iterable[Adam],
        *,
        max_retries: int = 3,
        lr_decay: float = 0.5,
        label: str = "training",
    ):
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        if not 0.0 < lr_decay < 1.0:
            raise ValueError(f"lr_decay must be in (0, 1), got {lr_decay}")
        self.optimizers = list(optimizers)
        stepped = {id(p) for o in self.optimizers for p in o.parameters}
        self._unstepped = [
            p for m in modules for p in m.parameters() if id(p) not in stepped
        ]
        self.max_retries = max_retries
        self.lr_decay = lr_decay
        self.label = label
        self.rollbacks = 0
        self.nan_events = 0
        self._optimizer_states: list[tuple] | None = None
        self._unstepped_states: list[np.ndarray] | None = None
        self.snapshot()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> None:
        """Capture the current weights + optimizer state as last-known-good."""
        self._optimizer_states = [o.snapshot() for o in self.optimizers]
        self._unstepped_states = [p.data.copy() for p in self._unstepped]

    def _restore(self) -> None:
        assert self._optimizer_states is not None
        assert self._unstepped_states is not None
        for optimizer, state in zip(self.optimizers, self._optimizer_states):
            optimizer.restore(state)
        for param, saved in zip(self._unstepped, self._unstepped_states):
            param.data[...] = saved

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def step_ok(self, *losses: float) -> bool:
        """True when the losses, the weights and the gradients the
        optimizers read are all finite."""
        if not all_finite(*losses):
            return False
        if not all(optimizer.finite() for optimizer in self.optimizers):
            return False
        return grads_finite(self._unstepped) and all(
            np.isfinite(p.data).all() for p in self._unstepped
        )

    def rollback(self) -> None:
        """Restore last-known-good state and decay learning rates.

        Raises :class:`DivergenceError` once ``max_retries`` is exceeded —
        state is still restored first, so callers that catch the error hold
        finite weights.
        """
        self.nan_events += 1
        self._restore()
        for optimizer in self.optimizers:
            optimizer.learning_rate *= self.lr_decay
        self.rollbacks += 1
        if self.rollbacks > self.max_retries:
            raise DivergenceError(self.label, self.max_retries)

    def counters(self) -> dict[str, int]:
        """Health-report counters describing this guard's activity."""
        return {"nan_events": self.nan_events, "rollbacks": self.rollbacks}
