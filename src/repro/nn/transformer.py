"""Encoder-decoder transformer for character-level string synthesis.

Paper Section VI and Fig. 4: the string synthesizer is a typical transformer
(character tokens, sinusoidal positions, multi-head attention, 3+3 layers in
the paper).  Inference uses *sampling* decoding so that one input string can
yield several candidate outputs, from which the caller keeps the one whose
similarity to the input is closest to the target (paper's "number of
candidate output strings").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.attention import (
    LayerKVCache,
    MultiHeadAttention,
    causal_mask,
    padding_mask,
)
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor


@dataclass(frozen=True)
class TransformerConfig:
    """Hyper-parameters of the seq2seq transformer.

    The paper uses hidden 256, 3 encoder + 3 decoder layers, 8 heads,
    dropout 0.1; the defaults here are scaled down so DP-SGD training on a
    CPU numpy substrate stays fast (see DESIGN.md substitution table).
    """

    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    d_feedforward: int = 128
    dropout: float = 0.1
    max_length: int = 96

    def __post_init__(self) -> None:
        if self.vocab_size < 4:
            raise ValueError("vocab must include PAD/BOS/EOS/UNK at minimum")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")


def _sample_next_tokens(
    logits: np.ndarray,
    *,
    temperature: float,
    rng: np.random.Generator,
    greedy: bool,
) -> np.ndarray:
    """Vectorized next-token selection for a whole batch of logit rows.

    ``logits`` is ``(batch, vocab)`` with forbidden ids already at ``-inf``.
    Sampling draws ONE uniform per row and inverts the cumulative
    distribution (`cumsum` + threshold count) — replacing the per-row
    ``rng.choice`` loop with the same O(batch · vocab) arithmetic done in
    numpy, and consuming a fixed amount of RNG state per step regardless of
    the probabilities (which is what makes cached decoding byte-identical
    to a full-prefix re-decode under a shared generator).
    """
    if greedy or temperature <= 0:
        return logits.argmax(axis=-1).astype(np.int64)
    scaled = logits / temperature
    scaled -= scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=-1, keepdims=True)
    cumulative = np.cumsum(probs, axis=-1)
    # nextafter keeps a draw of exactly 0.0 from landing on a zero-probability
    # leading bin (PAD); the distribution shift is one ulp.
    draws = np.nextafter(rng.random(logits.shape[0]), 1.0)
    next_ids = (cumulative < draws[:, None]).sum(axis=1)
    return np.minimum(next_ids, logits.shape[1] - 1).astype(np.int64)


class DecodeCache:
    """Incremental-decode state for one ``generate`` call.

    Holds a :class:`LayerKVCache` per decoder layer (append-only
    self-attention K/V plus the cross-attention K/V projected once from the
    encoder memory) and the number of target tokens fed so far, which is the
    positional-encoding offset for the next step.
    """

    __slots__ = ("layers", "memory_mask", "length")

    def __init__(self, layers: list[LayerKVCache], memory_mask: np.ndarray):
        self.layers = layers
        self.memory_mask = memory_mask
        self.length = 0


def sinusoidal_positions(max_length: int, d_model: int) -> np.ndarray:
    """The fixed sinusoidal positional encoding table, shape (max_len, d)."""
    positions = np.arange(max_length)[:, None]
    dims = np.arange(d_model)[None, :]
    angles = positions / np.power(10000.0, (2 * (dims // 2)) / d_model)
    table = np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))
    return table


class FeedForward(Module):
    """Position-wise two-layer MLP with ReLU."""

    def __init__(self, d_model: int, d_hidden: int, rng: np.random.Generator,
                 dropout: float):
        super().__init__()
        self.inner = Linear(d_model, d_hidden, rng)
        self.outer = Linear(d_hidden, d_model, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, inputs: Tensor) -> Tensor:
        return self.outer(self.dropout(self.inner(inputs).relu()))

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        """Array twin of :meth:`forward` (``Tensor.relu`` is ``h * (h > 0)``)."""
        hidden = self.inner.infer(inputs)
        return self.outer.infer(hidden * (hidden > 0))


class EncoderLayer(Module):
    """Self-attention + feed-forward with residuals and layer norm."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        self.self_attention = MultiHeadAttention(
            config.d_model, config.n_heads, rng, config.dropout
        )
        self.feed_forward = FeedForward(
            config.d_model, config.d_feedforward, rng, config.dropout
        )
        self.norm_attention = LayerNorm(config.d_model)
        self.norm_feed_forward = LayerNorm(config.d_model)
        self.dropout = Dropout(config.dropout, rng)

    def forward(self, inputs: Tensor, mask: np.ndarray | None) -> Tensor:
        attended = self.self_attention(inputs, inputs, inputs, mask)
        inputs = self.norm_attention(inputs + self.dropout(attended))
        fed = self.feed_forward(inputs)
        return self.norm_feed_forward(inputs + self.dropout(fed))

    def infer(self, inputs: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Array twin of :meth:`forward` (no dropout)."""
        k, v = self.self_attention.project_kv(inputs)
        attended = self.self_attention.infer(inputs, k, v, mask)
        inputs = self.norm_attention.infer(inputs + attended)
        fed = self.feed_forward.infer(inputs)
        return self.norm_feed_forward.infer(inputs + fed)


class DecoderLayer(Module):
    """Masked self-attention + cross-attention + feed-forward."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        self.self_attention = MultiHeadAttention(
            config.d_model, config.n_heads, rng, config.dropout
        )
        self.cross_attention = MultiHeadAttention(
            config.d_model, config.n_heads, rng, config.dropout
        )
        self.feed_forward = FeedForward(
            config.d_model, config.d_feedforward, rng, config.dropout
        )
        self.norm_self = LayerNorm(config.d_model)
        self.norm_cross = LayerNorm(config.d_model)
        self.norm_feed_forward = LayerNorm(config.d_model)
        self.dropout = Dropout(config.dropout, rng)

    def forward(
        self,
        targets: Tensor,
        memory: Tensor,
        target_mask: np.ndarray | None,
        memory_mask: np.ndarray | None,
    ) -> Tensor:
        attended = self.self_attention(targets, targets, targets, target_mask)
        targets = self.norm_self(targets + self.dropout(attended))
        crossed = self.cross_attention(targets, memory, memory, memory_mask)
        targets = self.norm_cross(targets + self.dropout(crossed))
        fed = self.feed_forward(targets)
        return self.norm_feed_forward(targets + self.dropout(fed))

    def infer_step(
        self,
        targets: np.ndarray,
        cache: LayerKVCache,
        memory_mask: np.ndarray | None,
        self_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Incremental decode: attend the new token(s) over the cached prefix.

        Projects K/V only for ``targets`` (the newly fed tokens), appends
        them to the cache, and reuses the cross-attention K/V projected once
        from the encoder memory — O(prefix) work per step instead of
        O(prefix²).  Array twin of :meth:`forward` (no dropout).
        """
        k_new, v_new = self.self_attention.project_kv(targets)
        cache.append_self(k_new, v_new)
        attended = self.self_attention.infer(
            targets, cache.self_k, cache.self_v, self_mask
        )
        targets = self.norm_self.infer(targets + attended)
        crossed = self.cross_attention.infer(
            targets, cache.cross_k, cache.cross_v, memory_mask
        )
        targets = self.norm_cross.infer(targets + crossed)
        fed = self.feed_forward.infer(targets)
        return self.norm_feed_forward.infer(targets + fed)


class Seq2SeqTransformer(Module):
    """Character-level encoder-decoder transformer.

    Token conventions (shared with :mod:`repro.textgen.vocab`): id 0 = PAD,
    1 = BOS, 2 = EOS.  ``forward`` returns logits for teacher-forced decoding
    (the training path); ``generate`` performs autoregressive sampling on
    plain arrays through the modules' ``infer`` twins, which repeat the
    Tensor forward's numpy ops in order, so its logits are bit-identical to
    ``decode`` and it builds no autograd graph.
    """

    PAD, BOS, EOS = 0, 1, 2

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.rng = rng
        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng)
        self.positions = sinusoidal_positions(config.max_length, config.d_model)
        self.encoder_layers = [
            EncoderLayer(config, rng) for _ in range(config.n_encoder_layers)
        ]
        self.decoder_layers = [
            DecoderLayer(config, rng) for _ in range(config.n_decoder_layers)
        ]
        self.output_proj = Linear(config.d_model, config.vocab_size, rng)
        self.embed_dropout = Dropout(config.dropout, rng)
        self.scale = float(np.sqrt(config.d_model))
        # Operator-visible decode telemetry (surfaced through the service
        # /stats endpoint): generate calls and the token steps they decoded.
        self.decode_stats: dict[str, int] = {
            "generate_calls": 0,
            "cached_tokens": 0,
        }

    # ------------------------------------------------------------------
    # Forward pieces
    # ------------------------------------------------------------------
    def _embed(self, token_ids: np.ndarray) -> Tensor:
        length = token_ids.shape[1]
        if length > self.config.max_length:
            raise ValueError(
                f"sequence length {length} exceeds max_length {self.config.max_length}"
            )
        embedded = self.token_embedding(token_ids) * self.scale
        embedded = embedded + Tensor(self.positions[:length])
        return self.embed_dropout(embedded)

    def encode(self, source_ids: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Run the encoder; returns (memory, source padding mask)."""
        source_mask = padding_mask(source_ids, self.PAD)
        hidden = self._embed(source_ids)
        for layer in self.encoder_layers:
            hidden = layer(hidden, source_mask)
        return hidden, source_mask

    def decode(
        self, target_ids: np.ndarray, memory: Tensor, memory_mask: np.ndarray
    ) -> Tensor:
        """Teacher-forced decoder logits, shape (batch, t_len, vocab)."""
        t_len = target_ids.shape[1]
        target_mask = causal_mask(t_len) | padding_mask(target_ids, self.PAD)
        hidden = self._embed(target_ids)
        for layer in self.decoder_layers:
            hidden = layer(hidden, memory, target_mask, memory_mask)
        return self.output_proj(hidden)

    def forward(self, source_ids: np.ndarray, target_ids: np.ndarray) -> Tensor:
        """Logits for next-token prediction given source and shifted target."""
        memory, memory_mask = self.encode(source_ids)
        return self.decode(target_ids, memory, memory_mask)

    # ------------------------------------------------------------------
    # KV-cached incremental decoding (plain arrays)
    # ------------------------------------------------------------------
    def _infer_embed(self, token_ids: np.ndarray, position: int = 0) -> np.ndarray:
        """Array twin of :meth:`_embed` for tokens at ``position`` onwards."""
        length = token_ids.shape[1]
        if position + length > self.config.max_length:
            raise ValueError(
                f"sequence length {position + length} exceeds max_length "
                f"{self.config.max_length}"
            )
        embedded = self.token_embedding.weight.data[token_ids] * self.scale
        return embedded + self.positions[position : position + length]

    def infer_encode(self, source_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Array twin of :meth:`encode`: (memory, source padding mask)."""
        source_ids = np.asarray(source_ids, dtype=np.int64)
        source_mask = padding_mask(source_ids, self.PAD)
        hidden = self._infer_embed(source_ids)
        for layer in self.encoder_layers:
            hidden = layer.infer(hidden, source_mask)
        return hidden, source_mask

    def start_decode_cache(
        self, memory: np.ndarray, memory_mask: np.ndarray
    ) -> DecodeCache:
        """Fresh decode cache: cross-attention K/V projected once per layer."""
        caches = []
        for layer in self.decoder_layers:
            cache = LayerKVCache()
            cache.cross_k, cache.cross_v = layer.cross_attention.project_kv(memory)
            caches.append(cache)
        return DecodeCache(caches, memory_mask)

    def decode_step(self, new_ids: np.ndarray, cache: DecodeCache) -> np.ndarray:
        """Decode only the newly fed token(s); returns last-position logits.

        ``new_ids`` is ``(batch, n_new)`` — during generation ``n_new`` is 1
        (the token emitted by the previous step); a longer block acts as a
        prefill with an internal causal mask.  The query batch may exceed the
        cached cross-attention batch when the memory is shared; numpy
        broadcasting handles the fan-out.

        No explicit padding mask is applied to the cached prefix: rows only
        ever contain PAD after they have emitted EOS, and ``generate``
        discards everything such rows produce, so the unmasked values never
        reach an output (the equivalence tests pin this down).
        """
        new_ids = np.asarray(new_ids, dtype=np.int64)
        position = cache.length
        length = new_ids.shape[1]
        hidden = self._infer_embed(new_ids, position)
        self_mask = None
        if length > 1:
            # Prefill: block attention to positions after each new token.
            blocked = np.triu(
                np.ones((length, position + length), dtype=bool), k=position + 1
            )
            self_mask = blocked[None, None, :, :]
        for layer, layer_cache in zip(self.decoder_layers, cache.layers):
            hidden = layer.infer_step(
                hidden, layer_cache, cache.memory_mask, self_mask
            )
        cache.length = position + length
        return self.output_proj.infer(hidden)[:, -1, :]

    # ------------------------------------------------------------------
    # Autoregressive generation
    # ------------------------------------------------------------------
    def generate(
        self,
        source_ids: np.ndarray,
        *,
        max_new_tokens: int | None = None,
        temperature: float = 1.0,
        rng: np.random.Generator | None = None,
        greedy: bool = False,
        samples_per_source: int = 1,
        min_new_tokens: int = 0,
    ) -> list[list[int]]:
        """Sample output token ids for each source row.

        Sampling (not beam search) is deliberate: the paper draws several
        candidate strings per input and picks the one whose similarity is
        closest to the target (Section VI, Inference).

        ``samples_per_source`` decodes that many sequences per source row
        from ONE encoder pass (outputs are row-major: all samples of source
        0, then source 1, ...).  Each step feeds only the newest token
        through :meth:`decode_step` against the KV cache.
        ``min_new_tokens`` blocks EOS for the first ``n`` steps (used by
        benchmarks to pin the decoded length).  Runs on plain arrays with
        no dropout whatever the module's train/eval mode, which it leaves
        untouched.
        """
        rng = rng or self.rng
        if samples_per_source < 1:
            raise ValueError(f"samples_per_source must be >= 1, got {samples_per_source}")
        limit = max_new_tokens or (self.config.max_length - 1)
        memory, memory_mask = self.infer_encode(source_ids)
        if samples_per_source > 1:
            memory = np.repeat(memory, samples_per_source, axis=0)
            memory_mask = np.repeat(memory_mask, samples_per_source, axis=0)
        batch = memory.shape[0]
        # Preallocated token buffer: the loop writes one column per step
        # instead of reallocating the whole prefix each token.
        buffer = np.full((batch, limit + 1), self.PAD, dtype=np.int64)
        buffer[:, 0] = self.BOS
        filled = 1
        finished = np.zeros(batch, dtype=bool)
        cache = self.start_decode_cache(memory, memory_mask)
        self.decode_stats["generate_calls"] += 1
        for step in range(limit):
            last = self.decode_step(buffer[:, filled - 1 : filled], cache)
            # Never emit PAD or BOS mid-sequence.
            last[:, self.PAD] = -np.inf
            last[:, self.BOS] = -np.inf
            if step < min_new_tokens:
                last[:, self.EOS] = -np.inf
            next_ids = _sample_next_tokens(
                last, temperature=temperature, rng=rng, greedy=greedy
            )
            next_ids = np.where(finished, self.PAD, next_ids)
            buffer[:, filled] = next_ids
            filled += 1
            self.decode_stats["cached_tokens"] += batch
            finished |= next_ids == self.EOS
            if finished.all():
                break
            if filled >= self.config.max_length:
                break
        sequences = buffer[:, :filled]
        outputs: list[list[int]] = []
        for row in sequences:
            tokens: list[int] = []
            for token in row[1:]:
                if token in (self.EOS, self.PAD):
                    break
                tokens.append(int(token))
            outputs.append(tokens)
        return outputs
