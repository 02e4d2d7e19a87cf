"""The autograd tabular GAN: the oracle for the array GAN.

:meth:`repro.gan.TabularGAN.fit`, ``discriminator_score`` and
``generate_vector`` run on plain ndarrays with hand-written backward passes,
a flat-buffer Adam and a guard that snapshots that buffer.  This module is
the former ``Tensor`` path: the networks' ``Tensor`` forwards, the ``Tensor``
BCE with its straight-through clamp, ``leaky_relu`` as an autograd op, and
the fit loop with autograd backward, the allocating per-parameter Adam of
:mod:`.optim` and a guard over whole state dicts that checks every
parameter's gradient after the generator step.  From the same seed both must
leave bit-identical weights, ``history``, ``health`` and RNG state.
"""

from __future__ import annotations

import numpy as np

from repro.gan.training import TabularGAN, _Discriminator, _Generator
from repro.nn.optim import Adam, grads_finite
from repro.nn.tensor import Tensor, no_grad
from repro.runtime import faults
from repro.runtime.guards import DivergenceError, all_finite

from tests.reference.optim import adam_step


def leaky_relu(inputs: Tensor, negative_slope: float = 0.01) -> Tensor:
    factor = np.where(inputs.data > 0, 1.0, negative_slope)

    def backward(grad: np.ndarray) -> None:
        if inputs.requires_grad:
            inputs._accumulate(grad * factor)

    return Tensor._make(inputs.data * factor, (inputs,), backward)


def binary_cross_entropy(
    probabilities: Tensor, targets: np.ndarray, *, eps: float = 1e-7
) -> Tensor:
    """Mean BCE with the clamp's gradient routed through the unclamped
    probabilities."""
    targets = np.asarray(targets, dtype=np.float64)
    clamped = Tensor(np.clip(probabilities.data, eps, 1.0 - eps))
    clamped = probabilities + (clamped - probabilities).detach()
    positive = Tensor(targets) * clamped.log()
    negative = Tensor(1.0 - targets) * (1.0 - clamped).log()
    return -(positive + negative).mean()


def generator_forward(generator: _Generator, noise: Tensor) -> Tensor:
    hidden = generator.body(noise).relu()
    hidden = generator.hidden(hidden).relu()
    return generator.head(hidden).sigmoid()


def discriminator_forward(discriminator: _Discriminator, vectors: Tensor) -> Tensor:
    hidden = discriminator.dropout(leaky_relu(discriminator.input(vectors), 0.2))
    hidden = discriminator.dropout(leaky_relu(discriminator.hidden(hidden), 0.2))
    return discriminator.head(hidden).sigmoid()


class _StateDictGuard:
    """The guard's former protocol: module and optimizer state dicts, and a
    walk over every parameter of every module."""

    def __init__(self, modules, optimizers, *, max_retries, lr_decay, label):
        self.modules = list(modules)
        self.optimizers = list(optimizers)
        self.max_retries = max_retries
        self.lr_decay = lr_decay
        self.label = label
        self.rollbacks = 0
        self.nan_events = 0
        self.snapshot()

    def snapshot(self) -> None:
        self._modules = [m.state_dict() for m in self.modules]
        self._optimizers = [o.state_dict() for o in self.optimizers]

    def step_ok(self, *losses: float) -> bool:
        if not all_finite(*losses):
            return False
        for module in self.modules:
            parameters = module.parameters()
            if not grads_finite(parameters):
                return False
            if not all(np.isfinite(p.data).all() for p in parameters):
                return False
        return True

    def rollback(self) -> None:
        self.nan_events += 1
        for module, state in zip(self.modules, self._modules):
            module.load_state_dict(state)
        for optimizer, state in zip(self.optimizers, self._optimizers):
            optimizer.load_state_dict(state)
            optimizer.learning_rate *= self.lr_decay
        self.rollbacks += 1
        if self.rollbacks > self.max_retries:
            raise DivergenceError(self.label, self.max_retries)

    def counters(self) -> dict[str, int]:
        return {"nan_events": self.nan_events, "rollbacks": self.rollbacks}


def fit(gan: TabularGAN, entities) -> TabularGAN:
    """Same contract as :meth:`TabularGAN.fit`, on the autograd ``Tensor``."""
    config = gan.config
    real = gan.encoder.encode_many(list(entities))
    if len(real) < 2:
        raise ValueError("need at least two real entities to train the GAN")
    d_optimizer = Adam(gan.discriminator.parameters(), config.learning_rate)
    g_optimizer = Adam(gan.generator.parameters(), config.learning_rate)
    batch = min(config.batch_size, len(real))
    gan.discriminator.train()
    guard = _StateDictGuard(
        (gan.generator, gan.discriminator),
        (d_optimizer, g_optimizer),
        max_retries=config.guard_max_retries,
        lr_decay=config.guard_lr_decay,
        label="gan",
    )
    completed = 0
    try:
        while completed < config.iterations:
            picks = gan.rng.choice(len(real), size=batch, replace=False)
            real_batch = Tensor(real[picks])
            noise = Tensor(gan.rng.standard_normal((batch, config.noise_dim)))
            with no_grad():
                fake_batch = Tensor(generator_forward(gan.generator, noise).data)
            d_real = discriminator_forward(gan.discriminator, real_batch)
            d_fake = discriminator_forward(gan.discriminator, fake_batch)
            d_loss = binary_cross_entropy(
                d_real, np.ones((batch, 1))
            ) + binary_cross_entropy(d_fake, np.zeros((batch, 1)))
            d_optimizer.zero_grad()
            g_optimizer.zero_grad()
            d_loss.backward()
            if faults.fire("gan.nan_grad"):
                poisoned = [
                    p for p in gan.discriminator.parameters() if p.grad is not None
                ]
                if poisoned:
                    poisoned[0].grad[...] = np.nan
            adam_step(d_optimizer)

            noise = Tensor(gan.rng.standard_normal((batch, config.noise_dim)))
            scores = discriminator_forward(
                gan.discriminator, generator_forward(gan.generator, noise)
            )
            g_loss = binary_cross_entropy(scores, np.ones((batch, 1)))
            d_optimizer.zero_grad()
            g_optimizer.zero_grad()
            g_loss.backward()
            adam_step(g_optimizer)

            if guard.step_ok(d_loss.item(), g_loss.item()):
                guard.snapshot()
                gan.history.append((d_loss.item(), g_loss.item()))
                completed += 1
            else:
                guard.rollback()
    finally:
        gan.health = guard.counters()
    gan.discriminator.eval()
    gan._fitted = True
    return gan


def discriminator_score(gan: TabularGAN, entity) -> float:
    vector = gan.encoder.encode(entity)
    with no_grad():
        score = discriminator_forward(gan.discriminator, Tensor(vector[None, :]))
    return float(score.data[0, 0])


def generate_vector(gan: TabularGAN, rng: np.random.Generator | None = None):
    rng = rng or gan.rng
    noise = Tensor(rng.standard_normal((1, gan.config.noise_dim)))
    with no_grad():
        return generator_forward(gan.generator, noise).data[0]
