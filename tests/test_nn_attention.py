"""Tests for multi-head attention and masks."""

import numpy as np
import pytest

from repro.nn import MultiHeadAttention, Tensor
from repro.nn.attention import causal_mask, padding_mask


class TestMasks:
    def test_padding_mask_shape_and_content(self):
        ids = np.array([[5, 6, 0, 0], [7, 0, 0, 0]])
        mask = padding_mask(ids, pad_id=0)
        assert mask.shape == (2, 1, 1, 4)
        np.testing.assert_array_equal(mask[0, 0, 0], [False, False, True, True])

    def test_causal_mask(self):
        mask = causal_mask(3)
        assert mask.shape == (1, 1, 3, 3)
        expected = np.array([
            [False, True, True],
            [False, False, True],
            [False, False, False],
        ])
        np.testing.assert_array_equal(mask[0, 0], expected)


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        attention = MultiHeadAttention(16, 4, rng)
        x = Tensor(rng.normal(size=(2, 5, 16)))
        out = attention(x, x, x)
        assert out.shape == (2, 5, 16)

    def test_d_model_divisibility(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, rng)

    def test_masked_positions_ignored(self, rng):
        """Changing a masked key must not change the output."""
        attention = MultiHeadAttention(8, 2, rng)
        ids = np.array([[1, 1, 0]])
        mask = padding_mask(ids, pad_id=0)
        base = rng.normal(size=(1, 3, 8))
        modified = base.copy()
        modified[0, 2] += 100.0  # perturb only the masked key/value
        query = Tensor(rng.normal(size=(1, 3, 8)))
        out_base = attention(query, Tensor(base), Tensor(base), mask)
        out_mod = attention(query, Tensor(modified), Tensor(modified), mask)
        np.testing.assert_allclose(out_base.data, out_mod.data, atol=1e-9)

    def test_causal_future_ignored(self, rng):
        """With a causal mask, position 0 output ignores later positions."""
        attention = MultiHeadAttention(8, 2, rng)
        mask = causal_mask(4)
        base = rng.normal(size=(1, 4, 8))
        modified = base.copy()
        modified[0, 3] += 50.0
        out_base = attention(Tensor(base), Tensor(base), Tensor(base), mask)
        out_mod = attention(
            Tensor(modified), Tensor(modified), Tensor(modified), mask
        )
        np.testing.assert_allclose(out_base.data[0, 0], out_mod.data[0, 0], atol=1e-9)

    def test_gradients_flow_through_all_projections(self, rng):
        attention = MultiHeadAttention(8, 2, rng)
        x = Tensor(rng.normal(size=(1, 3, 8)), requires_grad=True)
        attention(x, x, x).sum().backward()
        assert x.grad is not None
        for param in attention.parameters():
            assert param.grad is not None

    def test_cross_attention_shapes(self, rng):
        attention = MultiHeadAttention(8, 2, rng)
        query = Tensor(rng.normal(size=(2, 4, 8)))
        memory = Tensor(rng.normal(size=(2, 7, 8)))
        out = attention(query, memory, memory)
        assert out.shape == (2, 4, 8)

    @pytest.mark.parametrize("masked", [False, True])
    def test_infer_equals_forward_bitwise(self, rng, masked):
        """The array twin over ``project_kv`` arrays makes the Tensor
        forward's numpy ops in order: the same bits."""
        attention = MultiHeadAttention(8, 2, rng)
        query = rng.normal(size=(2, 4, 8))
        memory = rng.normal(size=(2, 5, 8))
        mask = padding_mask(np.array([[3, 3, 3, 0, 0], [3, 3, 3, 3, 3]]), 0)
        mask = mask if masked else None
        got = attention.infer(query, *attention.project_kv(memory), mask)
        want = attention(Tensor(query), Tensor(memory), Tensor(memory), mask)
        np.testing.assert_array_equal(got, want.data)
