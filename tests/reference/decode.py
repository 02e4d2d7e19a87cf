"""Full-prefix re-decode: the oracle for KV-cached generation.

:meth:`Seq2SeqTransformer.generate` feeds one token per step through the
KV cache.  :func:`generate` here re-runs the whole decoder over the entire
prefix every step and samples with the same vectorized sampler, so under
a shared RNG both must emit byte-identical token sequences.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import Seq2SeqTransformer, _sample_next_tokens


def generate(
    model: Seq2SeqTransformer,
    source_ids: np.ndarray,
    *,
    max_new_tokens: int | None = None,
    temperature: float = 1.0,
    rng: np.random.Generator | None = None,
    greedy: bool = False,
    samples_per_source: int = 1,
    min_new_tokens: int = 0,
) -> list[list[int]]:
    """Same contract as :meth:`Seq2SeqTransformer.generate`, uncached."""
    rng = rng or model.rng
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            limit = max_new_tokens or (model.config.max_length - 1)
            memory, memory_mask = model.encode(source_ids)
            if samples_per_source > 1:
                memory = Tensor(np.repeat(memory.data, samples_per_source, axis=0))
                memory_mask = np.repeat(memory_mask, samples_per_source, axis=0)
            batch = memory.shape[0]
            sequences = np.full((batch, 1), model.BOS, dtype=np.int64)
            finished = np.zeros(batch, dtype=bool)
            for step in range(limit):
                logits = model.decode(sequences, memory, memory_mask)
                last = logits.data[:, -1, :].copy()
                last[:, model.PAD] = -np.inf
                last[:, model.BOS] = -np.inf
                if step < min_new_tokens:
                    last[:, model.EOS] = -np.inf
                next_ids = _sample_next_tokens(
                    last, temperature=temperature, rng=rng, greedy=greedy
                )
                next_ids = np.where(finished, model.PAD, next_ids)
                sequences = np.concatenate([sequences, next_ids[:, None]], axis=1)
                finished |= next_ids == model.EOS
                if finished.all() or sequences.shape[1] >= model.config.max_length:
                    break
    finally:
        if was_training:
            model.train()
    outputs: list[list[int]] = []
    for row in sequences:
        tokens: list[int] = []
        for token in row[1:]:
            if token in (model.EOS, model.PAD):
                break
            tokens.append(int(token))
        outputs.append(tokens)
    return outputs


@contextlib.contextmanager
def uncached():
    """Route every ``Seq2SeqTransformer.generate`` call through :func:`generate`."""
    with mock.patch.object(Seq2SeqTransformer, "generate", generate):
        yield
