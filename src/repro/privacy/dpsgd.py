"""Differentially private SGD (paper Algorithm 1).

For each example in the minibatch: compute its gradient, clip it to L2 norm
``V``, sum the clipped gradients, add Gaussian noise ``N(0, sigma^2 V^2 I)``,
divide by the batch size, and take a descent step.  This is exactly the
paper's Algorithm 1 (which follows Abadi et al., "Deep Learning with
Differential Privacy").

Two implementations ship:

- :func:`dp_sgd_step` — the reference per-example loop (one forward/backward
  per example), kept as the equivalence oracle.
- :func:`dp_sgd_step_vectorized` — ONE batched forward/backward under
  :func:`repro.nn.grad_sample.per_sample_grads`, with per-example L2 norms
  and clip factors computed vectorized.  The clipped-and-summed gradient
  matches the loop to ~1e-10 and the noise draw has identical shape and
  ordering, so the privacy accounting is byte-for-byte the same (same
  sampling rate, same sigma, same number of releases).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.nn.grad_sample import flat_grad_samples, per_sample_grads
from repro.nn.layers import Module
from repro.nn.tensor import Tensor


@dataclass(frozen=True)
class DPSGDConfig:
    """DP-SGD hyper-parameters (paper Algorithm 1 inputs).

    Attributes
    ----------
    noise_scale:
        ``sigma`` — Gaussian noise multiplier relative to the clip norm.
    clip_norm:
        ``V`` — per-example gradient L2 bound.
    learning_rate:
        ``eta`` for the descent step.
    """

    noise_scale: float = 1.0
    clip_norm: float = 1.0
    learning_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.noise_scale < 0:
            raise ValueError(f"noise scale must be >= 0, got {self.noise_scale}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip norm must be > 0, got {self.clip_norm}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")


def _flatten_grads(parameters: Sequence[Tensor]) -> np.ndarray:
    pieces = []
    for param in parameters:
        grad = param.grad if param.grad is not None else np.zeros_like(param.data)
        pieces.append(grad.ravel())
    return np.concatenate(pieces)


def dp_sgd_step(
    model: Module,
    examples: Sequence,
    per_example_loss: Callable[[Module, object], Tensor],
    config: DPSGDConfig,
    rng: np.random.Generator,
) -> float:
    """One DP-SGD step over a minibatch (Algorithm 1, lines 3-10).

    Parameters
    ----------
    model:
        The module whose parameters are updated in place.
    examples:
        The minibatch; each element is passed to ``per_example_loss``.
    per_example_loss:
        Computes a scalar loss Tensor for one example — its gradient is the
        per-example gradient ``g(s_j, s'_j)`` that gets clipped.
    config:
        Noise scale ``sigma``, clip norm ``V``, learning rate ``eta``.
    rng:
        Source of the Gaussian noise (and nothing else).

    Returns
    -------
    float
        The mean (pre-clipping) loss over the batch, for logging.
    """
    if not examples:
        raise ValueError("empty minibatch")
    parameters = model.parameters()
    summed = np.zeros(sum(p.size for p in parameters))
    total_loss = 0.0
    for example in examples:
        model.zero_grad()
        loss = per_example_loss(model, example)
        total_loss += loss.item()
        loss.backward()
        grad = _flatten_grads(parameters)
        # Line 8: clip by L2 norm with threshold V.
        norm = float(np.linalg.norm(grad))
        if norm > config.clip_norm:
            grad *= config.clip_norm / norm
        summed += grad
    # Line 9: add N(0, sigma^2 V^2 I) and average.
    if config.noise_scale > 0:
        summed += rng.normal(
            0.0, config.noise_scale * config.clip_norm, size=summed.shape
        )
    averaged = summed / len(examples)
    # Line 10: descend.
    offset = 0
    for param in parameters:
        piece = averaged[offset : offset + param.size].reshape(param.data.shape)
        param.data -= config.learning_rate * piece
        offset += param.size
    model.zero_grad()
    return total_loss / len(examples)


def dp_sgd_step_vectorized(
    model: Module,
    examples: Sequence,
    batch_loss: Callable[[Module, Sequence], Tensor],
    config: DPSGDConfig,
    rng: np.random.Generator,
) -> float:
    """One DP-SGD step with vectorized per-sample gradients (Algorithm 1).

    Parameters
    ----------
    model:
        The module whose parameters are updated in place.  Every parameter
        must receive gradient through the grad-sample-instrumented layers
        (``Linear``/``Embedding``/``LayerNorm``) — :func:`collect_grad_samples`
        raises otherwise rather than silently corrupting the clip bound.
    examples:
        The minibatch, passed through to ``batch_loss`` untouched.
    batch_loss:
        Computes a ``(len(examples),)`` Tensor of per-example scalar losses
        in ONE batched forward; row ``b``'s gradient is the per-example
        gradient ``g(s_b, s'_b)`` that gets clipped.
    config:
        Noise scale ``sigma``, clip norm ``V``, learning rate ``eta``.
    rng:
        Source of the Gaussian noise (and nothing else) — consumed exactly
        like :func:`dp_sgd_step` (one draw of total-parameter size).

    Returns
    -------
    float
        The mean (pre-clipping) loss over the batch, for logging.
    """
    if not examples:
        raise ValueError("empty minibatch")
    parameters = model.parameters()
    model.zero_grad()
    with per_sample_grads():
        losses = batch_loss(model, examples)
        if losses.shape != (len(examples),):
            raise ValueError(
                f"batch_loss must return shape ({len(examples)},), "
                f"got {losses.shape}"
            )
        losses.sum().backward()
    batch = len(examples)
    flats = flat_grad_samples(parameters, batch)
    # Line 8 vectorized: per-example L2 norms and clip factors.
    squared_norms = np.zeros(batch)
    for flat in flats:
        squared_norms += np.einsum("bp,bp->b", flat, flat)
    norms = np.sqrt(squared_norms)
    factors = np.where(
        norms > config.clip_norm,
        config.clip_norm / np.maximum(norms, np.finfo(np.float64).tiny),
        1.0,
    )
    summed = np.concatenate([
        np.einsum("b,bp->p", factors, flat) for flat in flats
    ])
    # Line 9: add N(0, sigma^2 V^2 I) and average — identical draw to the loop.
    if config.noise_scale > 0:
        summed += rng.normal(
            0.0, config.noise_scale * config.clip_norm, size=summed.shape
        )
    averaged = summed / batch
    # Line 10: descend.
    offset = 0
    for param in parameters:
        piece = averaged[offset : offset + param.size].reshape(param.data.shape)
        param.data -= config.learning_rate * piece
        offset += param.size
    mean_loss = float(losses.data.mean())
    model.zero_grad()
    return mean_loss
