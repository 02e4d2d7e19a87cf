"""Vectorized per-sample gradients (Opacus-style ``grad_sample`` hooks).

DP-SGD (paper Algorithm 1) clips each *example's* gradient before averaging,
which on a plain autograd engine forces one forward/backward per example.
This module provides the standard vectorization trick: parameterized layers
save their input activations during a batched forward, and on backward
compute the per-example gradient directly from ``(saved activation,
upstream gradient)`` via einsum — one batched forward/backward replaces the
per-example loop, producing bit-compatible clipped sums (see
``tests/test_privacy_grad_sample.py``).

Usage::

    with per_sample_grads():
        losses = batch_loss(model, batch)   # Tensor of shape (batch,)
        losses.sum().backward()
    for param in model.parameters():
        param.grad_sample  # (batch, *param.shape)

The mode only changes *how* gradients are recorded; the regular summed
``.grad`` is still accumulated, so optimizers and guards keep working.
The contract is that the leading axis of every instrumented layer's input
is the example axis — true for every model in this repo (transformer, GAN,
deep matcher), where parameters live exclusively in ``Linear``,
``Embedding`` and ``LayerNorm``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.nn.tensor import Tensor

_per_sample_enabled = False


@contextlib.contextmanager
def per_sample_grads():
    """Enable grad-sample recording for forwards built inside the block."""
    global _per_sample_enabled
    previous = _per_sample_enabled
    _per_sample_enabled = True
    try:
        yield
    finally:
        _per_sample_enabled = previous


def is_per_sample_enabled() -> bool:
    return _per_sample_enabled


def accumulate_grad_sample(param: Tensor, grad_sample: np.ndarray) -> None:
    """Add a ``(batch, *param.shape)`` per-example gradient onto ``param``.

    Parameters used several times in one graph (e.g. a shared embedding)
    accumulate, mirroring how ``.grad`` sums over uses.
    """
    if param.grad_sample is None:
        param.grad_sample = grad_sample.copy()
    else:
        param.grad_sample += grad_sample


def clear_grad_samples(parameters) -> None:
    for param in parameters:
        param.grad_sample = None


def collect_grad_samples(parameters) -> list[np.ndarray]:
    """The recorded per-example gradients, in parameter order.

    Raises with a pointed message when a parameter took gradient through a
    non-instrumented path — silently dropping it would corrupt the DP
    clipping bound.
    """
    samples = []
    for index, param in enumerate(parameters):
        if param.grad_sample is None:
            raise RuntimeError(
                f"parameter #{index} (shape {param.data.shape}) has no "
                "grad_sample; it received gradient outside the instrumented "
                "Linear/Embedding/LayerNorm paths — run the model under "
                "per_sample_grads() or fall back to the per-example loop"
            )
        samples.append(param.grad_sample)
    return samples


def flat_grad_samples(parameters, batch: int) -> list[np.ndarray]:
    """The recorded per-example gradients as ``(batch, -1)`` views.

    The flattened layout is what DP-SGD's clip arithmetic consumes — per-
    example squared norms via ``einsum("bp,bp->b")`` and clipped sums via
    ``einsum("b,bp->p")``.
    """
    return [sample.reshape(batch, -1) for sample in collect_grad_samples(parameters)]
