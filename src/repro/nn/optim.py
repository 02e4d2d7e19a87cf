"""Optimizers: SGD with momentum, and Adam.

Also includes :func:`global_grad_norm` and :func:`clip_grad_norm_`, used by
the non-private training paths; DP-SGD (per-example clipping) lives in
:mod:`repro.privacy.dpsgd` because its clipping happens before aggregation.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, parameters: list[Tensor], learning_rate: float):
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        self.parameters = list(parameters)
        self.learning_rate = learning_rate

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # State capture (rollback-and-retry in repro.runtime.guards needs the
    # optimizer moments restored together with the weights — restoring
    # weights alone leaves Adam's moments poisoned by the bad step).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {"learning_rate": self.learning_rate}

    def load_state_dict(self, state: dict) -> None:
        self.learning_rate = float(state["learning_rate"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: list[Tensor],
        learning_rate: float = 0.01,
        momentum: float = 0.0,
    ):
        super().__init__(parameters, learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.empty(p.shape) for p in self.parameters]

    def step(self) -> None:
        """``data -= lr * update`` as two ufuncs through reusable scratch
        with ``out=`` — bit-identical to the allocating line, no per-step
        temporaries (the allocating form lives in ``tests/reference/optim``)."""
        for param, velocity, scratch in zip(
            self.parameters, self._velocity, self._scratch
        ):
            if param.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity += param.grad
                update = velocity
            else:
                update = param.grad
            np.multiply(update, self.learning_rate, out=scratch)
            np.subtract(param.data, scratch, out=param.data)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        if len(state["velocity"]) != len(self._velocity):
            raise ValueError("velocity state does not match parameter count")
        self._velocity = [np.array(v, dtype=np.float64) for v in state["velocity"]]


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: list[Tensor],
        learning_rate: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, learning_rate)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [(np.empty(p.shape), np.empty(p.shape)) for p in self.parameters]

    def step(self) -> None:
        """The Adam update ufunc-for-ufunc through two reusable scratch
        buffers per parameter — bit-identical to the allocating update in
        ``tests/reference/optim``, without its seven per-step temporaries."""
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v, (s1, s2) in zip(
            self.parameters, self._m, self._v, self._scratch
        ):
            if param.grad is None:
                continue
            data = param.data
            grad = param.grad
            if self.weight_decay:
                np.multiply(data, self.weight_decay, out=s1)
                np.add(grad, s1, out=s1)
                grad = s1
            # v <- beta2*v + (1-beta2)*grad^2
            np.power(grad, 2, out=s2)
            np.multiply(s2, 1.0 - self.beta2, out=s2)
            v *= self.beta2
            np.add(v, s2, out=v)
            # m <- beta1*m + (1-beta1)*grad
            np.multiply(grad, 1.0 - self.beta1, out=s2)
            m *= self.beta1
            np.add(m, s2, out=m)
            # param -= lr * (m/bias1) / (sqrt(v/bias2) + eps)
            np.divide(v, bias2, out=s1)  # grad alias dead past this point
            np.sqrt(s1, out=s1)
            np.add(s1, self.eps, out=s1)
            np.divide(m, bias1, out=s2)
            np.multiply(s2, self.learning_rate, out=s2)
            np.divide(s2, s1, out=s2)
            np.subtract(data, s2, out=data)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["step_count"] = self._step_count
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        if len(state["m"]) != len(self._m) or len(state["v"]) != len(self._v):
            raise ValueError("moment state does not match parameter count")
        self._step_count = int(state["step_count"])
        self._m = [np.array(m, dtype=np.float64) for m in state["m"]]
        self._v = [np.array(v, dtype=np.float64) for v in state["v"]]


def grads_finite(parameters: list[Tensor]) -> bool:
    """True when no gradient contains NaN/Inf (missing grads are fine)."""
    return all(
        param.grad is None or bool(np.isfinite(param.grad).all())
        for param in parameters
    )


def global_grad_norm(parameters: list[Tensor]) -> float:
    """L2 norm of all gradients concatenated."""
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            total += float(np.sum(param.grad**2))
    return float(np.sqrt(total))


def clip_grad_norm_(parameters: list[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    norm = global_grad_norm(parameters)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad *= scale
    return norm
