"""Renyi differential privacy accounting for DP-SGD.

The paper claims (epsilon=1, delta=1e-5)-DP for its trained transformers
(Table III).  This module makes that claim computable: it tracks the RDP of
the subsampled Gaussian mechanism across training steps and converts to
(epsilon, delta).

We use the integer-order upper bound of Mironov et al. ("Renyi Differential
Privacy of the Sampled Gaussian Mechanism", 2019), Eq. for integer alpha:

    RDP(alpha) <= 1/(alpha-1) * log( sum_{k=0}^{alpha}
        C(alpha, k) (1-q)^{alpha-k} q^k exp(k(k-1) / (2 sigma^2)) )

with sampling rate ``q`` and noise multiplier ``sigma``, composed linearly
over steps, then

    epsilon = min_alpha [ steps * RDP(alpha) + log(1/delta) / (alpha - 1) ].
"""

from __future__ import annotations

import functools
import math

import numpy as np

_DEFAULT_ORDERS = tuple(range(2, 65))


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def rdp_sampled_gaussian(
    sampling_rate: float, noise_scale: float, order: int
) -> float:
    """Per-step RDP of the subsampled Gaussian mechanism at integer ``order``.

    ``sampling_rate`` is the probability each example joins the minibatch;
    ``noise_scale`` is sigma (noise stddev / clip norm).
    """
    if not 0.0 <= sampling_rate <= 1.0:
        raise ValueError(f"sampling rate must be in [0, 1], got {sampling_rate}")
    if noise_scale <= 0:
        raise ValueError(f"noise scale must be > 0, got {noise_scale}")
    if order < 2:
        raise ValueError(f"order must be an integer >= 2, got {order}")
    if sampling_rate == 0.0:
        return 0.0
    if sampling_rate == 1.0:
        # Plain Gaussian mechanism.
        return order / (2.0 * noise_scale**2)
    log_terms = []
    for k in range(order + 1):
        log_term = (
            _log_comb(order, k)
            + (order - k) * math.log1p(-sampling_rate)
            + k * math.log(sampling_rate)
            + (k * (k - 1)) / (2.0 * noise_scale**2)
        )
        log_terms.append(log_term)
    log_sum = float(np.logaddexp.reduce(log_terms))
    return max(0.0, log_sum / (order - 1))


@functools.lru_cache(maxsize=64)
def _rdp_curve(
    sampling_rate: float, noise_scale: float, orders: tuple[int, ...]
) -> np.ndarray:
    """Per-step RDP at every order, computed once per key.

    DP-SGD charges the same ``(sampling_rate, noise_scale)`` every step, so
    the curve is memoized; the returned array is read-only because it is
    shared between callers.
    """
    curve = np.array(
        [rdp_sampled_gaussian(sampling_rate, noise_scale, o) for o in orders]
    )
    curve.setflags(write=False)
    return curve


class RDPAccountant:
    """Accumulates RDP over DP-SGD steps and converts to (epsilon, delta)."""

    def __init__(self, orders: tuple[int, ...] = _DEFAULT_ORDERS):
        if any(o < 2 for o in orders):
            raise ValueError("all orders must be >= 2")
        self.orders = tuple(orders)
        self._rdp = np.zeros(len(self.orders))

    def step(self, sampling_rate: float, noise_scale: float, steps: int = 1) -> None:
        """Record ``steps`` releases of the subsampled Gaussian mechanism."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        self._rdp += steps * _rdp_curve(sampling_rate, noise_scale, self.orders)

    def epsilon(self, delta: float) -> float:
        """The tightest epsilon over all tracked orders at this ``delta``."""
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        candidates = [
            rdp + math.log(1.0 / delta) / (order - 1)
            for rdp, order in zip(self._rdp, self.orders)
        ]
        return float(min(candidates))

    def reset(self) -> None:
        self._rdp[:] = 0.0

    def to_dict(self) -> dict:
        """Orders and accumulated RDP; JSON floats round-trip exactly."""
        return {"orders": list(self.orders), "rdp": self._rdp.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "RDPAccountant":
        accountant = cls(tuple(payload["orders"]))
        rdp = np.asarray(payload["rdp"], dtype=np.float64)
        if rdp.shape != accountant._rdp.shape:
            raise ValueError("RDP vector does not match the accountant's orders")
        accountant._rdp[...] = rdp
        return accountant


def noise_scale_for_epsilon(
    target_epsilon: float,
    delta: float,
    sampling_rate: float,
    steps: int,
    *,
    low: float = 0.3,
    high: float = 64.0,
    tolerance: float = 1e-3,
) -> float:
    """Smallest noise multiplier sigma achieving ``target_epsilon``.

    Binary search over sigma; epsilon is monotone decreasing in sigma.
    Raises ``ValueError`` when even ``high`` noise cannot reach the target.
    """
    if target_epsilon <= 0:
        raise ValueError(f"target epsilon must be > 0, got {target_epsilon}")

    def epsilon_at(noise: float) -> float:
        accountant = RDPAccountant()
        accountant.step(sampling_rate, noise, steps)
        return accountant.epsilon(delta)

    if epsilon_at(high) > target_epsilon:
        raise ValueError(
            f"cannot reach epsilon={target_epsilon} even with sigma={high}"
        )
    if epsilon_at(low) <= target_epsilon:
        return low
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        if epsilon_at(mid) <= target_epsilon:
            high = mid
        else:
            low = mid
    return high
