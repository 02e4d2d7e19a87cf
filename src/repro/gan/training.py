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
from repro.nn.losses import binary_cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
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


class _Generator(Module):
    def __init__(self, noise_dim: int, hidden_dim: int, out_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.body = Sequential(
            Linear(noise_dim, hidden_dim, rng),
        )
        self.hidden = Linear(hidden_dim, hidden_dim, rng)
        self.head = Linear(hidden_dim, out_dim, rng)

    def forward(self, noise: Tensor) -> Tensor:
        hidden = self.body(noise).relu()
        hidden = self.hidden(hidden).relu()
        # Sigmoid keeps outputs in [0, 1], matching the encoder's value range.
        return self.head(hidden).sigmoid()


class _Discriminator(Module):
    def __init__(self, in_dim: int, hidden_dim: int, dropout: float,
                 rng: np.random.Generator):
        super().__init__()
        self.input = Linear(in_dim, hidden_dim, rng)
        self.hidden = Linear(hidden_dim, hidden_dim // 2, rng)
        self.head = Linear(hidden_dim // 2, 1, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, vectors: Tensor) -> Tensor:
        hidden = self.dropout(self.input(vectors).leaky_relu(0.2))
        hidden = self.dropout(self.hidden(hidden).leaky_relu(0.2))
        return self.head(hidden).sigmoid()


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

        Every iteration runs under a :class:`TrainingGuard`: a step whose
        losses, gradients or resulting weights are non-finite is rolled back
        (last good weights + optimizer moments restored, learning rate
        decayed) instead of poisoning the rest of training; repeated
        divergence raises :class:`~repro.runtime.guards.DivergenceError`.
        """
        real = self.encoder.encode_many(list(entities))
        if len(real) < 2:
            raise ValueError("need at least two real entities to train the GAN")
        d_optimizer = Adam(self.discriminator.parameters(), self.config.learning_rate)
        g_optimizer = Adam(self.generator.parameters(), self.config.learning_rate)
        batch = min(self.config.batch_size, len(real))
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
                real_batch = Tensor(real[picks])
                noise = Tensor(self.rng.standard_normal((batch, self.config.noise_dim)))
                with no_grad():
                    fake_batch = Tensor(self.generator(noise).data)
                d_real = self.discriminator(real_batch)
                d_fake = self.discriminator(fake_batch)
                d_loss = binary_cross_entropy(
                    d_real, np.ones((batch, 1))
                ) + binary_cross_entropy(d_fake, np.zeros((batch, 1)))
                d_optimizer.zero_grad()
                g_optimizer.zero_grad()
                d_loss.backward()
                if faults.fire("gan.nan_grad"):
                    poisoned = [
                        p for p in self.discriminator.parameters()
                        if p.grad is not None
                    ]
                    if poisoned:
                        poisoned[0].grad[...] = np.nan
                d_optimizer.step()

                # --- generator step (non-saturating: maximize log D(G(z)))
                noise = Tensor(self.rng.standard_normal((batch, self.config.noise_dim)))
                scores = self.discriminator(self.generator(noise))
                g_loss = binary_cross_entropy(scores, np.ones((batch, 1)))
                d_optimizer.zero_grad()
                g_optimizer.zero_grad()
                g_loss.backward()
                g_optimizer.step()

                if guard.step_ok(d_loss.item(), g_loss.item()):
                    guard.snapshot()
                    self.history.append((d_loss.item(), g_loss.item()))
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
        noise = Tensor(rng.standard_normal((1, self.config.noise_dim)))
        with no_grad():
            return self.generator(noise).data[0]

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
        with no_grad():
            score = self.discriminator(Tensor(vector[None, :])).data[0, 0]
        return float(score)
