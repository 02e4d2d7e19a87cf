"""Adversarial training of the tabular GAN.

Standard GAN game (paper Section IV-B2): the generator maps noise ``z`` to an
entity vector; the discriminator is a binary classifier over entity vectors
trained with real entities labeled 1 and generated ones labeled 0.  The
generator maximizes the discriminator's error (non-saturating loss).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.gan.encoding import EntityEncoder
from repro.nn.layers import Dropout, Linear, Module, Sequential
from repro.nn.losses import bce_value_and_grad
from repro.nn.optim import Adam
from repro.runtime import faults
from repro.runtime.guards import TrainingGuard
from repro.schema.entity import Entity, Relation


@dataclass(frozen=True)
class TabularGANConfig:
    """GAN hyper-parameters.

    ``guard_max_retries`` / ``guard_lr_decay`` configure the numeric guard:
    a training step that produces NaN/Inf losses, gradients or weights is
    rolled back to the last good state with the learning rate decayed; after
    ``guard_max_retries`` rollbacks training raises
    :class:`~repro.runtime.guards.DivergenceError` (the SERD pipeline then
    degrades to synthesis without a GAN).
    """

    noise_dim: int = 16
    hidden_dim: int = 64
    iterations: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    dropout: float = 0.1
    guard_max_retries: int = 3
    guard_lr_decay: float = 0.5


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``Tensor.sigmoid``'s forward."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def _linear_backward(
    layer: Linear, inputs: np.ndarray, grad: np.ndarray, *,
    wrt_weights: bool = True, wrt_inputs: bool = True,
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """The autograd of ``inputs @ W + b`` for a 2-D batch: the input
    gradient and ``[dW, db]`` (each ``None``/empty when not wanted)."""
    params = [inputs.T @ grad, grad.sum(axis=0)] if wrt_weights else []
    return (grad @ layer.weight.data.T if wrt_inputs else None), params


class _Generator(Module):
    """``sigmoid(head(relu(hidden(relu(body(z))))))`` on arrays.

    The sigmoid keeps outputs in [0, 1], matching the encoder's value range.
    """

    def __init__(self, noise_dim: int, hidden_dim: int, out_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.body = Sequential(
            Linear(noise_dim, hidden_dim, rng),
        )
        self.hidden = Linear(hidden_dim, hidden_dim, rng)
        self.head = Linear(hidden_dim, out_dim, rng)

    def infer(self, noise: np.ndarray, tape: list | None = None) -> np.ndarray:
        """The forward; with ``tape`` it also records what :meth:`backward`
        reads."""
        hidden = noise
        for layer in (self.body.modules[0], self.hidden):
            pre = layer.infer(hidden)
            mask = pre > 0
            if tape is not None:
                tape.append((hidden, mask))
            hidden = pre * mask
        out = _sigmoid(self.head.infer(hidden))
        if tape is not None:
            tape.append((hidden, out))
        return out

    def backward(self, tape: list, grad: np.ndarray) -> list[np.ndarray]:
        """Gradients of :meth:`parameters`, in order, from ``dL/d out``."""
        (x0, mask0), (x1, mask1), (x2, out) = tape
        grad = grad * out * (1.0 - out)
        grad, head = _linear_backward(self.head, x2, grad)
        grad, hidden = _linear_backward(self.hidden, x1, grad * mask1)
        _, body = _linear_backward(
            self.body.modules[0], x0, grad * mask0, wrt_inputs=False
        )
        return body + hidden + head


class _Discriminator(Module):
    """``sigmoid(head(drop(lrelu(hidden(drop(lrelu(input(x))))))))`` on
    arrays; dropout draws its masks from the GAN's shared generator in
    training mode only."""

    SLOPE = 0.2

    def __init__(self, in_dim: int, hidden_dim: int, dropout: float,
                 rng: np.random.Generator):
        super().__init__()
        self.input = Linear(in_dim, hidden_dim, rng)
        self.hidden = Linear(hidden_dim, hidden_dim // 2, rng)
        self.head = Linear(hidden_dim // 2, 1, rng)
        self.dropout = Dropout(dropout, rng)

    def infer(self, vectors: np.ndarray, tape: list | None = None) -> np.ndarray:
        """The forward; with ``tape`` it also records what :meth:`backward`
        reads."""
        hidden = vectors
        for layer in (self.input, self.hidden):
            pre = layer.infer(hidden)
            factor = np.where(pre > 0, 1.0, self.SLOPE)
            activated = pre * factor
            mask = self.dropout.sample_mask(activated.shape)
            if tape is not None:
                tape.append((hidden, factor, mask))
            hidden = activated if mask is None else activated * mask
        out = _sigmoid(self.head.infer(hidden))
        if tape is not None:
            tape.append((hidden, out))
        return out

    def backward(
        self, tape: list, grad: np.ndarray, *, wrt_weights: bool
    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """``dL/d vectors`` (only without ``wrt_weights``: the real and fake
        batches are constants) and the gradients of :meth:`parameters`, in
        order (only with ``wrt_weights``: the generator step applies none)."""
        (x0, factor0, mask0), (x1, factor1, mask1), (x2, out) = tape
        grad = grad * out * (1.0 - out)
        grad, head = _linear_backward(self.head, x2, grad, wrt_weights=wrt_weights)
        if mask1 is not None:
            grad = grad * mask1
        grad, hidden = _linear_backward(
            self.hidden, x1, grad * factor1, wrt_weights=wrt_weights
        )
        if mask0 is not None:
            grad = grad * mask0
        grad, first = _linear_backward(
            self.input, x0, grad * factor0,
            wrt_weights=wrt_weights, wrt_inputs=not wrt_weights,
        )
        return grad, first + hidden + head


class TabularGAN:
    """Generator + discriminator over encoded entities.

    After :meth:`fit`, :meth:`generate_entity` produces cold-start entities
    and :meth:`discriminator_score` provides the rejection Case 1 probability
    of an entity being real.
    """

    def __init__(self, encoder: EntityEncoder, config: TabularGANConfig | None = None,
                 seed: int = 0):
        self.encoder = encoder
        self.config = config or TabularGANConfig()
        self.rng = np.random.default_rng(seed)
        self.generator = _Generator(
            self.config.noise_dim, self.config.hidden_dim, encoder.dim, self.rng
        )
        self.discriminator = _Discriminator(
            encoder.dim, self.config.hidden_dim, self.config.dropout, self.rng
        )
        self.history: list[tuple[float, float]] = []  # (d_loss, g_loss)
        self.health: dict[str, int] = {"nan_events": 0, "rollbacks": 0}
        self._generated_count = 0
        self._fitted = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, entities: Sequence[Entity] | Relation) -> "TabularGAN":
        """Run the adversarial game against ``entities`` as the real data.

        Forward, backward and both Adam updates run on plain ndarrays and
        make the numpy calls the ``Tensor`` autograd makes, in the same
        order, so weights, ``history`` and the generator state are
        bit-identical to the autograd loop in ``tests/reference/gan.py``.

        Every iteration runs under a :class:`TrainingGuard`: a step whose
        losses, applied gradients or resulting weights are non-finite is
        rolled back (last good weights + optimizer moments restored,
        learning rate decayed) instead of poisoning the rest of training;
        repeated divergence raises
        :class:`~repro.runtime.guards.DivergenceError`.
        """
        real = self.encoder.encode_many(list(entities))
        if len(real) < 2:
            raise ValueError("need at least two real entities to train the GAN")
        d_params = self.discriminator.parameters()
        g_params = self.generator.parameters()
        d_optimizer = Adam(d_params, self.config.learning_rate)
        g_optimizer = Adam(g_params, self.config.learning_rate)
        batch = min(self.config.batch_size, len(real))
        ones, zeros = np.ones((batch, 1)), np.zeros((batch, 1))
        self.discriminator.train()
        guard = TrainingGuard(
            (self.generator, self.discriminator),
            (d_optimizer, g_optimizer),
            max_retries=self.config.guard_max_retries,
            lr_decay=self.config.guard_lr_decay,
            label="gan",
        )
        completed = 0
        try:
            while completed < self.config.iterations:
                # --- discriminator step
                picks = self.rng.choice(len(real), size=batch, replace=False)
                noise = self.rng.standard_normal((batch, self.config.noise_dim))
                fake = self.generator.infer(noise)
                real_tape, fake_tape = [], []
                d_real = self.discriminator.infer(real[picks], real_tape)
                d_fake = self.discriminator.infer(fake, fake_tape)
                real_loss, real_grad = bce_value_and_grad(d_real, ones)
                fake_loss, fake_grad = bce_value_and_grad(d_fake, zeros)
                d_loss = real_loss + fake_loss
                _, real_grads = self.discriminator.backward(
                    real_tape, real_grad, wrt_weights=True
                )
                _, fake_grads = self.discriminator.backward(
                    fake_tape, fake_grad, wrt_weights=True
                )
                # Each weight served both batches: its gradient is the sum.
                for param, g_real, g_fake in zip(d_params, real_grads, fake_grads):
                    param.grad = np.add(g_real, g_fake)
                if faults.fire("gan.nan_grad"):
                    d_params[0].grad[...] = np.nan
                d_optimizer.step()

                # --- generator step (non-saturating: maximize log D(G(z)))
                noise = self.rng.standard_normal((batch, self.config.noise_dim))
                g_tape, d_tape = [], []
                scores = self.discriminator.infer(
                    self.generator.infer(noise, g_tape), d_tape
                )
                g_loss, score_grad = bce_value_and_grad(scores, ones)
                fake_grad, _ = self.discriminator.backward(
                    d_tape, score_grad, wrt_weights=False
                )
                g_grads = self.generator.backward(g_tape, fake_grad)
                for param, grad in zip(g_params, g_grads):
                    param.grad = grad
                g_optimizer.step()

                if guard.step_ok(d_loss, g_loss):
                    guard.snapshot()
                    self.history.append((d_loss, g_loss))
                    completed += 1
                else:
                    guard.rollback()
        finally:
            self.health = guard.counters()
        # A fitted GAN only scores: dropout stays off from here on.
        self.discriminator.eval()
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("GAN is not fitted; call fit() first")

    def generate_vector(self, rng: np.random.Generator | None = None) -> np.ndarray:
        self._require_fitted()
        rng = rng or self.rng
        return self.generator.infer(rng.standard_normal((1, self.config.noise_dim)))[0]

    def generate_entity(
        self, entity_id: str | None = None, rng: np.random.Generator | None = None
    ) -> Entity:
        """Decode one generated vector into a concrete entity (cold start)."""
        self._generated_count += 1
        name = entity_id or f"gan-{self._generated_count}"
        return self.encoder.decode(self.generate_vector(rng), name)

    # ------------------------------------------------------------------
    # Persistence (stage checkpointing: GAN training is an expensive stage)
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Persist encoder state and both networks' weights to a directory."""
        import pathlib

        from repro.runtime.io import atomic_write_json

        self._require_fitted()
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            directory / "gan.json",
            {
                "encoder": self.encoder.to_dict(),
                "generated_count": self._generated_count,
                "health": dict(self.health),
                "rng_state": self.rng.bit_generator.state,
            },
        )
        self.generator.save(str(directory / "generator.npz"))
        self.discriminator.save(str(directory / "discriminator.npz"))

    def load(self, directory) -> "TabularGAN":
        """Restore a GAN saved with :meth:`save` (config must match)."""
        import pathlib

        from repro.runtime.io import read_json

        directory = pathlib.Path(directory)
        meta = read_json(directory / "gan.json", what="GAN checkpoint")
        self.encoder = EntityEncoder.from_dict(self.encoder.schema, meta["encoder"])
        self.generator.load(str(directory / "generator.npz"))
        self.discriminator.load(str(directory / "discriminator.npz"))
        self._generated_count = int(meta.get("generated_count", 0))
        self.health = {k: int(v) for k, v in meta.get("health", {}).items()}
        if meta.get("rng_state") is not None:
            self.rng.bit_generator.state = meta["rng_state"]
        self.discriminator.eval()
        self._fitted = True
        return self

    def discriminator_score(self, entity: Entity) -> float:
        """P(entity is real) per the discriminator — rejection Case 1 input."""
        self._require_fitted()
        vector = self.encoder.encode(entity)
        return float(self.discriminator.infer(vector[None, :])[0, 0])
