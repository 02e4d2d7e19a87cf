"""Tests for NN modules (Linear, Embedding, LayerNorm, Dropout, Module)."""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
)


class TestLinear:
    def test_forward_shape_and_value(self, rng):
        layer = Linear(3, 2, rng)
        layer.weight.data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer.bias.data = np.array([0.5, -0.5])
        out = layer(Tensor(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[4.5, 4.5]])

    def test_no_bias(self, rng):
        layer = Linear(3, 2, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow(self, rng):
        layer = Linear(4, 2, rng)
        out = layer(Tensor(rng.normal(size=(5, 4)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    @pytest.mark.parametrize("bias", [True, False])
    def test_infer_equals_forward_bitwise(self, rng, bias):
        layer = Linear(6, 5, rng, bias=bias)
        if bias:
            layer.bias.data = rng.normal(size=5)
        x = rng.normal(size=(3, 4, 6))
        np.testing.assert_array_equal(layer.infer(x), layer(Tensor(x)).data)


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng)
        ids = np.array([[1, 2], [3, 1]])
        out = emb(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 0], emb.weight.data[1])

    def test_gradient_scatter_adds(self, rng):
        emb = Embedding(5, 3, rng)
        ids = np.array([1, 1, 2])
        out = emb(ids).sum()
        out.backward()
        np.testing.assert_allclose(emb.weight.grad[1], 2.0 * np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[2], np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))


class TestLayerNorm:
    def test_output_normalized(self, rng):
        layer = LayerNorm(8)
        out = layer(Tensor(rng.normal(3.0, 5.0, size=(4, 8))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_gamma_beta_trainable(self, rng):
        layer = LayerNorm(4)
        out = layer(Tensor(rng.normal(size=(2, 4)))).sum()
        out.backward()
        assert layer.gamma.grad is not None
        assert layer.beta.grad is not None

    def test_infer_equals_forward_bitwise(self, rng):
        layer = LayerNorm(7)
        layer.gamma.data = rng.normal(size=7)
        layer.beta.data = rng.normal(size=7)
        x = rng.normal(2.0, 3.0, size=(3, 4, 7))
        np.testing.assert_array_equal(layer.infer(x), layer(Tensor(x)).data)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng)
        layer.eval()
        data = rng.normal(size=(10, 10))
        np.testing.assert_allclose(layer(Tensor(data)).data, data)

    def test_training_mode_scales(self, rng):
        layer = Dropout(0.5, rng)
        out = layer(Tensor(np.ones((200, 200))))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.4 < (out.data > 0).mean() < 0.6

    def test_zero_rate_identity(self, rng):
        layer = Dropout(0.0, rng)
        data = rng.normal(size=(5, 5))
        np.testing.assert_allclose(layer(Tensor(data)).data, data)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


class TestModule:
    def _model(self, rng):
        return Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng), Sigmoid())

    def test_named_parameters_recursive(self, rng):
        model = self._model(rng)
        names = [n for n, _ in model.named_parameters()]
        assert "modules.0.weight" in names
        assert "modules.2.bias" in names
        assert len(names) == 4

    def test_n_parameters(self, rng):
        model = self._model(rng)
        assert model.n_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_propagates(self, rng):
        model = Sequential(Dropout(0.5, rng), Tanh())
        model.eval()
        assert not model.modules[0].training
        model.train()
        assert model.modules[0].training

    def test_state_dict_roundtrip(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        other = self._model(np.random.default_rng(999))
        other.load_state_dict(state)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            model(Tensor(x)).data, other(Tensor(x)).data
        )

    def test_state_dict_mismatch_rejected(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        del state["modules.0.weight"]
        with pytest.raises(ValueError, match="missing"):
            model.load_state_dict(state)

    def test_save_load_file(self, rng, tmp_path):
        model = self._model(rng)
        path = str(tmp_path / "weights.npz")
        model.save(path)
        other = self._model(np.random.default_rng(1))
        other.load(path)
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(model(Tensor(x)).data, other(Tensor(x)).data)

    def test_zero_grad_clears_all(self, rng):
        model = self._model(rng)
        model(Tensor(rng.normal(size=(3, 4)))).sum().backward()
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
