"""A small reverse-mode autograd engine and neural-network library on numpy.

The paper trains transformer seq2seq models (Vaswani et al.) for string
synthesis, a tabular GAN for cold start and entity rejection, and a deep
matcher — all of which this substrate supports offline, torch-free.

Layout mirrors the familiar torch API at miniature scale:

- :mod:`repro.nn.tensor` — :class:`Tensor` with broadcasting-aware backward.
- :mod:`repro.nn.layers` — ``Module``, ``Linear``, ``Embedding``,
  ``LayerNorm``, ``Dropout``, ``Sequential``.
- :mod:`repro.nn.attention` — multi-head scaled dot-product attention.
- :mod:`repro.nn.transformer` — encoder-decoder transformer with sampling
  decode (paper Section VI / Fig. 4).
- :mod:`repro.nn.optim` — SGD and Adam.
- :mod:`repro.nn.losses` — cross entropy (with padding mask); BCE on arrays
  with its gradient.
"""

from repro.nn.attention import LayerKVCache, MultiHeadAttention
from repro.nn.grad_sample import per_sample_grads
from repro.nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import cross_entropy, cross_entropy_per_example
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import (
    DecodeCache,
    Seq2SeqTransformer,
    TransformerConfig,
)

__all__ = [
    "Adam",
    "DecodeCache",
    "Dropout",
    "Embedding",
    "LayerKVCache",
    "LayerNorm",
    "Linear",
    "Module",
    "MultiHeadAttention",
    "Optimizer",
    "ReLU",
    "SGD",
    "Seq2SeqTransformer",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "Tensor",
    "TransformerConfig",
    "cross_entropy",
    "cross_entropy_per_example",
    "no_grad",
    "per_sample_grads",
]
