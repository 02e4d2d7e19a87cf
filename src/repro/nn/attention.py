"""Multi-head scaled dot-product attention (Vaswani et al., 2017).

The paper uses the "typical transformer model from the Attention is All You
Need paper" with 8 heads (Section VII, Settings); our default configs scale
the head count down with the model size but the mechanism is identical.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor


class MultiHeadAttention(Module):
    """Multi-head attention with optional additive boolean masking.

    Masks are boolean ndarrays broadcastable to ``(batch, heads, q_len,
    k_len)`` where True marks positions to *block* (set to -inf before
    softmax) — the convention used for both padding and causal masks.
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        # Hoisted so attention does not recompute 1/sqrt(d_head) per call.
        self._scale = 1.0 / np.sqrt(self.d_head)
        self.query_proj = Linear(d_model, d_model, rng)
        self.key_proj = Linear(d_model, d_model, rng)
        self.value_proj = Linear(d_model, d_model, rng)
        self.out_proj = Linear(d_model, d_model, rng)
        self.dropout = Dropout(dropout, rng)

    def _split_heads(self, x, batch: int, length: int):
        # (batch, len, d_model) -> (batch, heads, len, d_head); the same
        # reshape/transpose serves Tensors and ndarrays.
        return x.reshape(batch, length, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend ``query`` over ``key``/``value``.

        Shapes: query ``(batch, q_len, d_model)``, key/value ``(batch, k_len,
        d_model)``; returns ``(batch, q_len, d_model)``.
        """
        batch, k_len, _ = key.shape
        k = self._split_heads(self.key_proj(key), batch, k_len)
        v = self._split_heads(self.value_proj(value), batch, k_len)
        batch, q_len, _ = query.shape
        q = self._split_heads(self.query_proj(query), batch, q_len)
        scores = (q @ k.swapaxes(-1, -2)) * self._scale
        if mask is not None:
            scores = scores.masked_fill(mask, -1e9)
        weights = self.dropout(scores.softmax(axis=-1))
        context = weights @ v  # (batch, heads, q_len, d_head)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.d_model)
        return self.out_proj(merged)

    # ------------------------------------------------------------------
    # Inference on plain arrays: each op is the numpy call the Tensor
    # forward makes, in the same order, so values are bit-identical.
    # Dropout is the identity at inference and is left out.
    # ------------------------------------------------------------------
    def project_kv(self, source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split-head K/V projections of ``source``, the cacheable half of
        attention: shape ``(batch, heads, src_len, d_head)`` each."""
        batch, length, _ = source.shape
        k = self._split_heads(self.key_proj.infer(source), batch, length)
        v = self._split_heads(self.value_proj.infer(source), batch, length)
        return k, v

    def infer(
        self,
        query: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Project ``query`` and attend over already-projected ``k``/``v``.

        ``k``/``v`` come from :meth:`project_kv` or a decode cache.  The key
        batch may be 1 with a larger query batch (numpy broadcasting).
        """
        batch, q_len, _ = query.shape
        q = self._split_heads(self.query_proj.infer(query), batch, q_len)
        scores = (q @ k.swapaxes(-1, -2)) * self._scale
        if mask is not None:
            scores = np.where(mask, -1e9, scores)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        weights = exp / exp.sum(axis=-1, keepdims=True)
        context = weights @ v
        merged = context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.d_model)
        return self.out_proj.infer(merged)


class LayerKVCache:
    """Decode-time K/V state for one decoder layer.

    ``self_k``/``self_v`` grow append-only as tokens are emitted
    (``(batch, heads, t, d_head)``); ``cross_k``/``cross_v`` are projected
    once from the encoder memory and never change.
    """

    __slots__ = ("self_k", "self_v", "cross_k", "cross_v")

    def __init__(self) -> None:
        self.self_k: np.ndarray | None = None
        self.self_v: np.ndarray | None = None
        self.cross_k: np.ndarray | None = None
        self.cross_v: np.ndarray | None = None

    def append_self(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Append freshly projected K/V for the newly fed token(s)."""
        if self.self_k is None:
            self.self_k, self.self_v = k_new, v_new
        else:
            self.self_k = np.concatenate([self.self_k, k_new], axis=2)
            self.self_v = np.concatenate([self.self_v, v_new], axis=2)


def padding_mask(token_ids: np.ndarray, pad_id: int) -> np.ndarray:
    """Mask blocking attention *to* padding keys.

    Shape ``(batch, 1, 1, k_len)`` — broadcasts over heads and query
    positions.
    """
    blocked = np.asarray(token_ids) == pad_id
    return blocked[:, None, None, :]


def causal_mask(length: int) -> np.ndarray:
    """Upper-triangular mask blocking attention to future positions.

    Shape ``(1, 1, length, length)``.
    """
    blocked = np.triu(np.ones((length, length), dtype=bool), k=1)
    return blocked[None, None, :, :]
