"""Loss functions: cross entropy on the autograd ``Tensor``, BCE on arrays."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

# The fancy-index pick below needs arange(n_positions) every call; training
# loops call with a fixed batch x seq shape, so memoize the row indices.
_ARANGE_CACHE: dict[int, np.ndarray] = {}


def _arange(n: int) -> np.ndarray:
    rows = _ARANGE_CACHE.get(n)
    if rows is None:
        if len(_ARANGE_CACHE) >= 64:
            _ARANGE_CACHE.clear()
        rows = np.arange(n)
        _ARANGE_CACHE[n] = rows
    return rows


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    *,
    ignore_index: int | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Token-level cross entropy.

    Parameters
    ----------
    logits:
        ``(..., vocab)`` unnormalized scores.
    targets:
        Integer class ids with shape ``logits.shape[:-1]``.
    ignore_index:
        Target id to exclude (e.g. PAD=0 for seq2seq training).
    reduction:
        ``"mean"`` (over non-ignored targets), ``"sum"``, or ``"none"``
        (per-position losses as a flat Tensor).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.shape}"
        )
    vocab = logits.shape[-1]
    flat_logits = logits.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    log_probs = flat_logits.log_softmax(axis=-1)
    picked = log_probs[_arange(flat_targets.size), flat_targets]
    losses = -picked
    if ignore_index is not None:
        keep = (flat_targets != ignore_index).astype(np.float64)
        losses = losses * Tensor(keep)
        count = max(1.0, float(keep.sum()))
    else:
        count = float(flat_targets.size)
    if reduction == "none":
        return losses
    if reduction == "sum":
        return losses.sum()
    if reduction == "mean":
        return losses.sum() * (1.0 / count)
    raise ValueError(f"unknown reduction {reduction!r}")


def cross_entropy_per_example(
    logits: Tensor,
    targets: np.ndarray,
    *,
    ignore_index: int | None = None,
) -> Tensor:
    """Per-example mean token cross entropy, shape ``(batch,)``.

    Row ``b`` equals ``cross_entropy(logits[b], targets[b],
    ignore_index=...)`` with ``reduction="mean"`` — each example is averaged
    over its OWN non-ignored token count.  This is the batched loss DP-SGD
    needs: the gradient of row ``b`` w.r.t. the parameters is exactly the
    per-example gradient the per-example loop would have computed.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.shape}"
        )
    if targets.ndim < 1:
        raise ValueError("per-example loss needs a leading batch axis")
    batch = targets.shape[0]
    vocab = logits.shape[-1]
    flat_logits = logits.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    log_probs = flat_logits.log_softmax(axis=-1)
    picked = log_probs[_arange(flat_targets.size), flat_targets]
    per_position = (-picked).reshape(batch, -1)
    if ignore_index is not None:
        keep = (targets.reshape(batch, -1) != ignore_index).astype(np.float64)
        per_position = per_position * Tensor(keep)
        counts = np.maximum(1.0, keep.sum(axis=1))
    else:
        counts = np.full(batch, per_position.shape[1], dtype=np.float64)
    return per_position.sum(axis=1) * Tensor(1.0 / counts)


def bce_value_and_grad(
    probabilities: np.ndarray, targets: np.ndarray, *, eps: float = 1e-7
) -> tuple[float, np.ndarray]:
    """Mean BCE between predicted probabilities and 0/1 targets of the same
    shape, and its gradient with respect to ``probabilities``.

    Inputs are clamped away from {0, 1} for numerical stability (the GAN's
    discriminator saturates early in training) with a straight-through
    gradient: the clamp is ``p + (clip(p) + (-p))``, which is not always
    exactly ``clip(p)``, and the gradient flows to ``p`` unclamped.  Each
    line is the numpy call the autograd graph of the ``Tensor`` form makes
    (``tests/reference/gan.py``), so value and gradient are bit-identical
    to it.
    """
    targets = np.asarray(targets, dtype=np.float64)
    p = probabilities
    clamped = p + (np.clip(p, eps, 1.0 - eps) + (-p))
    complement = 1.0 + (-clamped)
    log_p, log_q = np.log(clamped), np.log(complement)
    weight_q = 1.0 - targets
    total = targets * log_p + weight_q * log_q
    loss = -(total.sum() * (1.0 / total.size))
    # Backward from d(loss) = 1: negation, the 1/n of the mean, the sum's
    # broadcast, then the two log branches into the clamp (two terms, so
    # their sum is exact in either order).
    upstream = np.full(total.shape, -(1.0 / total.size))
    grad = (upstream * targets) / clamped
    grad += -((upstream * weight_q) / complement)
    return float(loss), grad


def mse_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    difference = predictions - Tensor(np.asarray(targets, dtype=np.float64))
    return (difference * difference).mean()
