"""Allocating optimizer updates: the oracle for the in-place ``out=`` steps.

:class:`repro.nn.optim.SGD` and :class:`repro.nn.optim.Adam` pipe their
updates through reusable scratch buffers.  The functions here are the same
updates written as plain numpy expressions, one temporary per operator, and
must produce bit-identical parameters and moments.
"""

from __future__ import annotations

import numpy as np

from repro.nn.optim import SGD, Adam


def sgd_step(optimizer: SGD) -> None:
    """One ``SGD.step`` with the allocating ``data -= lr * update`` line."""
    for param, velocity in zip(optimizer.parameters, optimizer._velocity):
        if param.grad is None:
            continue
        if optimizer.momentum:
            velocity *= optimizer.momentum
            velocity += param.grad
            update = velocity
        else:
            update = param.grad
        param.data -= optimizer.learning_rate * update


def adam_step(optimizer: Adam) -> None:
    """One ``Adam.step`` written as allocating numpy expressions."""
    optimizer._step_count += 1
    bias1 = 1.0 - optimizer.beta1**optimizer._step_count
    bias2 = 1.0 - optimizer.beta2**optimizer._step_count
    for param, m, v in zip(optimizer.parameters, optimizer._m, optimizer._v):
        if param.grad is None:
            continue
        grad = param.grad
        if optimizer.weight_decay:
            grad = grad + optimizer.weight_decay * param.data
        m *= optimizer.beta1
        m += (1.0 - optimizer.beta1) * grad
        v *= optimizer.beta2
        v += (1.0 - optimizer.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        param.data -= optimizer.learning_rate * m_hat / (np.sqrt(v_hat) + optimizer.eps)
