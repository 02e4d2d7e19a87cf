"""Optimizers: SGD with momentum, and Adam.

Also includes :func:`global_grad_norm` and :func:`clip_grad_norm_`, used by
the non-private training paths; DP-SGD (per-example clipping) lives in
:mod:`repro.privacy.dpsgd` because its clipping happens before aggregation.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

# Rows of Adam's flat buffer; the numeric guard snapshots DATA:V+1 as one
# contiguous block.
_DATA, _M, _V, _GRAD, _S1, _S2 = range(6)


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
    """Adam (Kingma & Ba) with bias correction.

    The weights, gradients, moments and scratch of every parameter live in
    one flat float64 buffer of six rows (the ``_DATA`` ... ``_S2`` row
    indices), so :meth:`step` runs each ufunc of the update once over all
    parameters instead of once per parameter.  Every op is elementwise with
    scalar constants, so the result is bit-identical to the per-parameter
    update in ``tests/reference/optim``.  Each parameter's ``data`` is
    rebound to its view of the weight row; ``_m``/``_v`` are per-parameter
    views of the moment rows.  A gradient or weight array rebound by a
    caller (autograd assigns a fresh ``grad`` on every backward) is copied
    into the buffer, and the parameter rebound to its view, on the next
    :meth:`step`, :meth:`finite` or :meth:`snapshot`.
    """

    def __init__(
        self,
        parameters: list[Tensor],
        learning_rate: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, learning_rate)
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            raise ValueError("a parameter is listed more than once")
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        bounds = np.cumsum([0] + [p.size for p in self.parameters]).tolist()
        self._spans = list(zip(bounds[:-1], bounds[1:]))
        self._flat = np.zeros((6, bounds[-1]))

        def views(row: int) -> list[np.ndarray]:
            return [
                self._flat[row, start:stop].reshape(param.shape)
                for param, (start, stop) in zip(self.parameters, self._spans)
            ]

        self._data, self._grad = views(_DATA), views(_GRAD)
        self._m, self._v = views(_M), views(_V)
        for param, data in zip(self.parameters, self._data):
            data[...] = param.data
            param.data = data

    def _gather(self) -> list[tuple[int, int]]:
        """Bind every weight and gradient to its view of the buffer (copying
        rebound arrays in) and return the buffer spans of the parameters
        that have a gradient, adjacent spans merged."""
        runs: list[tuple[int, int]] = []
        for param, data, grad, (start, stop) in zip(
            self.parameters, self._data, self._grad, self._spans
        ):
            if param.data is not data:
                data[...] = param.data
                param.data = data
            if param.grad is None:
                continue
            if param.grad is not grad:
                grad[...] = param.grad
                param.grad = grad
            if runs and runs[-1][1] == start:
                runs[-1] = (runs[-1][0], stop)
            else:
                runs.append((start, stop))
        return runs

    def step(self) -> None:
        """The Adam update ufunc-for-ufunc through the two scratch rows, once
        per run of parameters with a gradient; a parameter without one keeps
        its weights and moments, as in the reference."""
        runs = self._gather()
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for start, stop in runs:
            data, m, v, grad, s1, s2 = self._flat[:, start:stop]
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
        if len(state["m"]) != len(self._m) or len(state["v"]) != len(self._v):
            raise ValueError("moment state does not match parameter count")
        super().load_state_dict(state)
        self._step_count = int(state["step_count"])
        for views, saved in ((self._m, state["m"]), (self._v, state["v"])):
            for view, array in zip(views, saved):
                view[...] = array

    def snapshot(self) -> tuple:
        """Learning rate, step count and one copy of the weight and moment
        rows."""
        self._gather()
        return (
            self.learning_rate, self._step_count, self._flat[_DATA : _V + 1].copy()
        )

    def restore(self, snapshot: tuple) -> None:
        self._gather()
        self.learning_rate, self._step_count, rows = snapshot
        self._flat[_DATA : _V + 1] = rows

    def finite(self) -> bool:
        """Two ``isfinite`` passes: the weight row, then the gradient spans
        of the parameters that have a gradient."""
        runs = self._gather()
        if not np.isfinite(self._flat[_DATA]).all():
            return False
        return all(np.isfinite(self._flat[_GRAD, a:b]).all() for a, b in runs)


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
