"""Autograd engine tests: every op gradient-checked against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad
from repro.nn.tensor import _unbroadcast, concatenate, stack

from tests.reference.gan import leaky_relu


def numeric_gradient(func, array, eps=1e-6):
    """Central finite differences of scalar func with respect to array."""
    grad = np.zeros_like(array)
    for index in np.ndindex(*array.shape):
        original = array[index]
        array[index] = original + eps
        plus = func()
        array[index] = original - eps
        minus = func()
        array[index] = original
        grad[index] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, *arrays, atol=1e-5):
    """``build(*tensors) -> scalar Tensor``; compares autograd to numeric."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for tensor, array in zip(tensors, arrays):
        expected = numeric_gradient(
            lambda: float(build(*[Tensor(a) for a in arrays]).data), array
        )
        np.testing.assert_allclose(tensor.grad, expected, atol=atol)


class TestArithmeticGradients:
    def test_add_broadcast(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        check_gradient(lambda x, y: ((x + y) * (x + y)).sum(), a, b)

    def test_mul_broadcast(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 1))
        check_gradient(lambda x, y: (x * y).sum(), a, b)

    def test_sub_and_neg(self, rng):
        a = rng.normal(size=(3,))
        b = rng.normal(size=(3,))
        check_gradient(lambda x, y: ((x - y) * (x - y)).sum(), a, b)

    def test_div(self, rng):
        a = rng.normal(size=(4,))
        b = rng.normal(size=(4,)) + 3.0
        check_gradient(lambda x, y: (x / y).sum(), a, b)

    def test_pow(self, rng):
        a = np.abs(rng.normal(size=(5,))) + 0.5
        check_gradient(lambda x: (x**3).sum(), a)

    def test_rsub_rdiv(self, rng):
        a = np.abs(rng.normal(size=(3,))) + 1.0
        check_gradient(lambda x: (2.0 - x).sum() + (1.0 / x).sum(), a)

    def test_scalar_exponent_type_check(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))


class TestMatmulGradients:
    def test_2d(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_gradient(lambda x, y: (x @ y).sum(), a, b)

    def test_batched(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        check_gradient(lambda x, y: (x @ y).sum(), a, b)

    def test_broadcast_batched(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))  # broadcast over batch
        check_gradient(lambda x, y: (x @ y).sum(), a, b)


class TestNonlinearityGradients:
    UNARY = {
        "exp": Tensor.exp,
        "tanh": Tensor.tanh,
        "relu": Tensor.relu,
        "sigmoid": Tensor.sigmoid,
        # The GAN oracle's autograd op (the GAN itself trains on arrays).
        "leaky_relu": leaky_relu,
    }

    @pytest.mark.parametrize("op", sorted(UNARY))
    def test_unary(self, op, rng):
        a = rng.normal(size=(4, 3)) + 0.1  # avoid ReLU kink at 0
        check_gradient(lambda x: (self.UNARY[op](x) * 1.5).sum(), a)

    def test_log(self, rng):
        a = np.abs(rng.normal(size=(5,))) + 0.5
        check_gradient(lambda x: x.log().sum(), a)

    def test_sqrt(self, rng):
        a = np.abs(rng.normal(size=(5,))) + 0.5
        check_gradient(lambda x: x.sqrt().sum(), a)


class TestReductionGradients:
    def test_sum_axis(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradient(lambda x: (x.sum(axis=0) ** 2).sum(), a)

    def test_sum_keepdims(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradient(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(), a)

    def test_mean_and_var(self, rng):
        a = rng.normal(size=(4, 5))
        check_gradient(lambda x: x.var(axis=1).sum() + x.mean(), a)

    def test_max(self, rng):
        a = rng.normal(size=(4, 5))
        check_gradient(lambda x: x.max(axis=1).sum(), a)


class TestShapeGradients:
    def test_reshape_transpose(self, rng):
        a = rng.normal(size=(2, 3, 4))
        check_gradient(
            lambda x: (x.reshape(6, 4).transpose(1, 0) ** 2).sum(), a
        )

    def test_swapaxes(self, rng):
        a = rng.normal(size=(2, 3, 4))
        check_gradient(lambda x: (x.swapaxes(0, 2) * 2.0).sum(), a)

    def test_getitem_slice(self, rng):
        a = rng.normal(size=(5, 4))
        check_gradient(lambda x: (x[1:3] ** 2).sum(), a)

    def test_getitem_fancy(self, rng):
        a = rng.normal(size=(6, 3))
        idx = np.array([0, 2, 2, 5])
        check_gradient(lambda x: (x[idx] ** 2).sum(), a)

    def test_take_rows(self, rng):
        a = rng.normal(size=(7, 4))
        idx = np.array([[0, 1], [3, 3]])
        check_gradient(lambda x: (x.take_rows(idx) ** 2).sum(), a)

    def test_masked_fill(self, rng):
        a = rng.normal(size=(3, 3))
        mask = np.eye(3, dtype=bool)
        check_gradient(lambda x: (x.masked_fill(mask, -5.0) ** 2).sum(), a)

    def test_concatenate(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(4, 3))
        check_gradient(lambda x, y: (concatenate([x, y], axis=0) ** 2).sum(), a, b)

    def test_stack(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        check_gradient(lambda x, y: (stack([x, y], axis=1) ** 2).sum(), a, b)


class TestSoftmaxGradients:
    def test_softmax(self, rng):
        a = rng.normal(size=(3, 5))
        check_gradient(lambda x: (x.softmax(axis=-1) ** 2).sum(), a)

    def test_log_softmax(self, rng):
        a = rng.normal(size=(3, 5))
        check_gradient(lambda x: (x.log_softmax(axis=-1) * 0.3).sum(), a)

    def test_log_softmax_stable_for_large_inputs(self):
        t = Tensor(np.array([[1000.0, 0.0]]))
        out = t.log_softmax(axis=-1)
        assert np.isfinite(out.data).all()


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_without_grad_flag(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.sum().backward()

    def test_gradient_accumulates_on_reuse(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = (a * a).sum() + a.sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 1.0)

    def test_no_grad_disables_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (t * 2).sum()
        assert not out.requires_grad

    def test_detach(self):
        t = Tensor(np.ones(3), requires_grad=True)
        assert not t.detach().requires_grad

    def test_deep_chain_does_not_recurse(self):
        t = Tensor(np.ones(1), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()  # iterative DFS: no RecursionError
        assert t.grad[0] == 1.0

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestUnbroadcast:
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
    )
    @settings(max_examples=30)
    def test_row_vector(self, rows, cols):
        grad = np.ones((rows, cols))
        out = _unbroadcast(grad, (cols,))
        np.testing.assert_allclose(out, np.full(cols, rows))

    def test_keepdim_axis(self):
        grad = np.ones((3, 4))
        out = _unbroadcast(grad, (3, 1))
        np.testing.assert_allclose(out, np.full((3, 1), 4))

    def test_identity(self):
        grad = np.ones((2, 2))
        assert _unbroadcast(grad, (2, 2)) is grad
