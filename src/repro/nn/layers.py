"""Neural network modules on top of the autograd Tensor.

``Module`` provides recursive parameter discovery (anything assigned as an
attribute that is a parameter Tensor or another Module is found), train/eval
mode, and state-dict serialization — enough to build the transformer, the
GAN, and the deep matcher.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.nn import grad_sample as gs
from repro.nn.tensor import Tensor


def xavier_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = shape[0], shape[-1]
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base class for all neural modules."""

    def __init__(self) -> None:
        self.training = True

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, parameter)`` for every trainable tensor."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{full}.{i}", item

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def n_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Modes and serialization
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        self._set_training(True)
        return self

    def eval(self) -> "Module":
        self._set_training(False)
        return self

    def _set_training(self, flag: bool) -> None:
        self.training = flag
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_training(flag)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_training(flag)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}"
                )
            # In place: an optimizer may hold the weights as views of its
            # flat buffer (nn.optim.Adam).
            param.data[...] = state[name]

    def save(self, path: str) -> None:
        """Persist parameters to an ``.npz`` file."""
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        with np.load(path) as payload:
            self.load_state_dict({k: payload[k] for k in payload.files})


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(xavier_uniform((in_features, out_features), rng),
                             requires_grad=True)
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )

    def forward(self, inputs: Tensor) -> Tensor:
        if gs.is_per_sample_enabled():
            return self._forward_grad_sample(inputs)
        out = inputs @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        """Array twin of :meth:`forward` for inference: the same numpy ops in
        the same order, so the result is bit-identical, with no graph."""
        out = inputs @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def _forward_grad_sample(self, inputs: Tensor) -> Tensor:
        """Batched forward that records per-example weight/bias gradients.

        The leading axis of ``inputs`` is the example axis; middle axes
        (sequence positions) are summed *within* each example:
        ``gs_W[b] = sum_t x[b,t,:] ⊗ g[b,t,:]``.
        """
        weight, bias = self.weight, self.bias
        data = inputs.data @ weight.data
        if bias is not None:
            data = data + bias.data

        def backward(grad: np.ndarray) -> None:
            if inputs.requires_grad:
                inputs._accumulate(grad @ weight.data.T)
            batch = grad.shape[0]
            grad_flat = grad.reshape(batch, -1, weight.data.shape[1])
            if weight.requires_grad:
                in_flat = inputs.data.reshape(batch, -1, weight.data.shape[0])
                per_sample = np.einsum("bti,bto->bio", in_flat, grad_flat)
                gs.accumulate_grad_sample(weight, per_sample)
                weight._accumulate(per_sample.sum(axis=0))
            if bias is not None and bias.requires_grad:
                per_sample_b = grad_flat.sum(axis=1)
                gs.accumulate_grad_sample(bias, per_sample_b)
                bias._accumulate(per_sample_b.sum(axis=0))

        parents = (inputs, weight) if bias is None else (inputs, weight, bias)
        return Tensor._make(data, parents, backward)


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Tensor(
            rng.normal(0.0, embedding_dim**-0.5, size=(num_embeddings, embedding_dim)),
            requires_grad=True,
        )

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if gs.is_per_sample_enabled():
            return self._forward_grad_sample(token_ids)
        return self.weight.take_rows(token_ids)

    def _forward_grad_sample(self, token_ids: np.ndarray) -> Tensor:
        """Lookup that scatter-adds per-example gradients onto the table."""
        weight = self.weight
        data = weight.data[token_ids]

        def backward(grad: np.ndarray) -> None:
            if not weight.requires_grad:
                return
            batch = token_ids.shape[0]
            dim = weight.data.shape[1]
            ids_flat = token_ids.reshape(batch, -1)
            grad_flat = grad.reshape(batch, -1, dim)
            per_sample = np.zeros((batch,) + weight.data.shape)
            rows = np.broadcast_to(np.arange(batch)[:, None], ids_flat.shape)
            np.add.at(per_sample, (rows, ids_flat), grad_flat)
            gs.accumulate_grad_sample(weight, per_sample)
            weight._accumulate(per_sample.sum(axis=0))

        return Tensor._make(data, (weight,), backward)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, inputs: Tensor) -> Tensor:
        # Share the centered term between the variance and the normalization
        # (inputs.var would recompute it): one fewer subtraction.  Values are
        # bit-identical to the var() formulation — identical ops over
        # identical operands.
        mean = inputs.mean(axis=-1, keepdims=True)
        centered = inputs - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered / ((variance + self.eps) ** 0.5)
        if gs.is_per_sample_enabled():
            return self._affine_grad_sample(normalized)
        return normalized * self.gamma + self.beta

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        """Array twin of :meth:`forward`: ``Tensor.mean`` is a sum times
        ``1/n``, and ``a - b`` equals the Tensor's ``a + (-b)`` exactly, so
        the result is bit-identical."""
        inv_n = 1.0 / inputs.shape[-1]
        mean = inputs.sum(axis=-1, keepdims=True) * inv_n
        centered = inputs - mean
        variance = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
        normalized = centered / ((variance + self.eps) ** 0.5)
        return normalized * self.gamma.data + self.beta.data

    def _affine_grad_sample(self, normalized: Tensor) -> Tensor:
        """The gamma/beta affine with per-example gradient recording.

        The normalization itself has no parameters, so only this final
        affine needs instrumentation: ``gs_gamma[b] = sum_t g[b,t] * x̂[b,t]``
        and ``gs_beta[b] = sum_t g[b,t]``.
        """
        gamma, beta = self.gamma, self.beta
        data = normalized.data * gamma.data + beta.data

        def backward(grad: np.ndarray) -> None:
            if normalized.requires_grad:
                normalized._accumulate(grad * gamma.data)
            batch = grad.shape[0]
            dim = gamma.data.shape[0]
            grad_flat = grad.reshape(batch, -1, dim)
            if gamma.requires_grad:
                scaled = (grad * normalized.data).reshape(batch, -1, dim)
                per_sample = scaled.sum(axis=1)
                gs.accumulate_grad_sample(gamma, per_sample)
                gamma._accumulate(per_sample.sum(axis=0))
            if beta.requires_grad:
                per_sample_b = grad_flat.sum(axis=1)
                gs.accumulate_grad_sample(beta, per_sample_b)
                beta._accumulate(per_sample_b.sum(axis=0))

        return Tensor._make(data, (normalized, gamma, beta), backward)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, inputs: Tensor) -> Tensor:
        mask = self.sample_mask(inputs.shape)
        return inputs if mask is None else inputs * Tensor(mask)

    def sample_mask(self, shape: tuple[int, ...]) -> np.ndarray | None:
        """The scaled keep-mask the next forward multiplies by (one draw of
        ``rng.random(shape)``), or ``None`` where dropout is the identity."""
        if not self.training or self.rate == 0.0:
            return None
        keep = 1.0 - self.rate
        return (self.rng.random(shape) < keep) / keep


class ReLU(Module):
    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class Tanh(Module):
    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.tanh()


class Sigmoid(Module):
    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.sigmoid()


class Sequential(Module):
    """Run modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, inputs: Tensor) -> Tensor:
        out = inputs
        for module in self.modules:
            out = module(out)
        return out
