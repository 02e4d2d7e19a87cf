"""Neural matcher — the Deepmatcher stand-in.

Deepmatcher [Mudgal et al., SIGMOD'18] composes per-attribute summarization
with attention and a classifier head over learned pair representations.  At
this reproduction's scale we keep its essential shape: a per-attribute gating
(attention over the similarity features) followed by an MLP head, trained
with Adam on binary cross entropy using the autograd substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matchers.base import Matcher
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.losses import bce_value_and_grad
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad


@dataclass(frozen=True)
class DeepMatcherConfig:
    """Hyper-parameters of the neural matcher."""

    hidden_dim: int = 64
    dropout: float = 0.1
    learning_rate: float = 2e-3
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0


class _DeepMatcherNet(Module):
    """Feature gating ("attention") + two-layer classifier head."""

    def __init__(self, in_dim: int, hidden_dim: int, dropout: float,
                 rng: np.random.Generator):
        super().__init__()
        self.gate = Linear(in_dim, in_dim, rng)
        self.body = Linear(in_dim, hidden_dim, rng)
        self.hidden = Linear(hidden_dim, hidden_dim // 2, rng)
        self.head = Linear(hidden_dim // 2, 1, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, features: Tensor) -> Tensor:
        attention = self.gate(features).softmax(axis=-1)
        gated = features * attention * features.shape[-1]
        hidden = self.dropout(self.body(gated).relu())
        hidden = self.dropout(self.hidden(hidden).relu())
        return self.head(hidden).sigmoid()


class DeepMatcher(Matcher):
    """Train/predict wrapper around :class:`_DeepMatcherNet`."""

    def __init__(self, config: DeepMatcherConfig | None = None):
        self.config = config or DeepMatcherConfig()
        self._net: _DeepMatcherNet | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self.history: list[float] = []

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DeepMatcher":
        features, labels = self._validate(features, labels)
        rng = np.random.default_rng(self.config.seed)
        self._mean = features.mean(axis=0)
        self._std = features.std(axis=0)
        self._std[self._std < 1e-12] = 1.0
        standardized = (features - self._mean) / self._std
        self._net = _DeepMatcherNet(
            standardized.shape[1], self.config.hidden_dim, self.config.dropout, rng
        )
        optimizer = Adam(self._net.parameters(), self.config.learning_rate)
        n = len(labels)
        batch = min(self.config.batch_size, n)
        self.history = []
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            steps = 0
            for start in range(0, n, batch):
                picks = order[start : start + batch]
                if len(picks) < 2:
                    continue
                outputs = self._net(Tensor(standardized[picks]))
                loss, grad = bce_value_and_grad(outputs.data, labels[picks][:, None])
                optimizer.zero_grad()
                outputs.backward(grad)
                optimizer.step()
                epoch_loss += loss
                steps += 1
            self.history.append(epoch_loss / max(1, steps))
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self._net is None:
            raise RuntimeError("model is not fitted")
        features = self._validate(features)
        standardized = (features - self._mean) / self._std
        self._net.eval()
        try:
            with no_grad():
                outputs = self._net(Tensor(standardized))
        finally:
            self._net.train()
        return outputs.data[:, 0]
