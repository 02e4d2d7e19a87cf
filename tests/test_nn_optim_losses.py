"""Tests for optimizers and loss functions."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Linear, Tensor, binary_cross_entropy, cross_entropy
from repro.nn.losses import mse_loss
from repro.nn.optim import clip_grad_norm_, global_grad_norm

from tests.reference import optim as reference


def _quadratic_param():
    return Tensor(np.array([5.0, -3.0]), requires_grad=True)


class TestSGD:
    def test_converges_on_quadratic(self):
        param = _quadratic_param()
        optimizer = SGD([param], learning_rate=0.1)
        for _ in range(100):
            optimizer.zero_grad()
            (param * param).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, 0.0, atol=1e-4)

    def test_momentum_accelerates(self):
        def run(momentum):
            param = _quadratic_param()
            optimizer = SGD([param], learning_rate=0.02, momentum=momentum)
            for _ in range(40):
                optimizer.zero_grad()
                (param * param).sum().backward()
                optimizer.step()
            return float(np.abs(param.data).sum())

        assert run(0.9) < run(0.0)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD([], learning_rate=-1)
        with pytest.raises(ValueError):
            SGD([], learning_rate=0.1, momentum=1.5)

    def test_skips_parameters_without_grad(self):
        param = Tensor(np.ones(2), requires_grad=True)
        optimizer = SGD([param], learning_rate=0.5)
        optimizer.step()  # no grad accumulated: no-op
        np.testing.assert_allclose(param.data, 1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        param = _quadratic_param()
        optimizer = Adam([param], learning_rate=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            (param * param).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, 0.0, atol=1e-3)

    def test_weight_decay_shrinks(self):
        param = Tensor(np.array([10.0]), requires_grad=True)
        optimizer = Adam([param], learning_rate=0.1, weight_decay=1.0)
        for _ in range(50):
            optimizer.zero_grad()
            (param * 0.0).sum().backward()  # zero task gradient
            optimizer.step()
        assert abs(param.data[0]) < 10.0


class TestInPlaceUpdateMatchesReference:
    """The scratch-buffer ``out=`` steps equal the allocating numpy lines
    bit for bit: parameters, velocity and both Adam moments."""

    CASES = {
        "sgd": (SGD, {"learning_rate": 0.05}, reference.sgd_step),
        "sgd_momentum": (
            SGD, {"learning_rate": 0.05, "momentum": 0.9}, reference.sgd_step
        ),
        "adam": (Adam, {"learning_rate": 0.01}, reference.adam_step),
        "adam_weight_decay": (
            Adam, {"learning_rate": 0.01, "weight_decay": 1.0}, reference.adam_step
        ),
    }

    @staticmethod
    def _state(optimizer):
        arrays = [p.data for p in optimizer.parameters]
        for name in ("_velocity", "_m", "_v"):
            arrays += getattr(optimizer, name, [])
        return arrays

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_over_steps(self, case):
        cls, kwargs, reference_step = self.CASES[case]
        init = np.random.default_rng(0)
        shapes = [(4, 3), (3,), (2, 2)]
        values = [init.normal(size=shape) for shape in shapes]
        fast = cls([Tensor(v.copy(), requires_grad=True) for v in values], **kwargs)
        slow = cls([Tensor(v.copy(), requires_grad=True) for v in values], **kwargs)
        grads = np.random.default_rng(1)
        for step in range(6):
            for index, shape in enumerate(shapes):
                # The last parameter skips every third step (no gradient).
                grad = None if index == 2 and step % 3 == 2 else grads.normal(size=shape)
                fast.parameters[index].grad = None if grad is None else grad.copy()
                slow.parameters[index].grad = None if grad is None else grad.copy()
            fast.step()
            reference_step(slow)
            for a, b in zip(self._state(fast), self._state(slow)):
                assert a.shape == b.shape and (a == b).all()


class TestGradNorm:
    def test_global_norm(self):
        p1 = Tensor(np.zeros(2), requires_grad=True)
        p2 = Tensor(np.zeros(2), requires_grad=True)
        p1.grad = np.array([3.0, 0.0])
        p2.grad = np.array([0.0, 4.0])
        assert global_grad_norm([p1, p2]) == pytest.approx(5.0)

    def test_clip_scales_down(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm_([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_noop_when_under(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.3, 0.4])
        clip_grad_norm_([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        targets = np.array([0, 2, 4, 1])
        loss = cross_entropy(logits, targets)
        log_probs = logits.data - np.log(
            np.exp(logits.data).sum(axis=1, keepdims=True)
        )
        expected = -log_probs[np.arange(4), targets].mean()
        assert loss.item() == pytest.approx(expected)

    def test_ignore_index_excludes_padding(self, rng):
        logits = Tensor(rng.normal(size=(1, 4, 6)))
        targets = np.array([[3, 2, 0, 0]])
        loss_all = cross_entropy(logits, targets)
        loss_masked = cross_entropy(logits, targets, ignore_index=0)
        assert loss_all.item() != pytest.approx(loss_masked.item())

    def test_reductions(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)))
        targets = np.array([1, 2, 3])
        total = cross_entropy(logits, targets, reduction="sum").item()
        mean = cross_entropy(logits, targets, reduction="mean").item()
        per = cross_entropy(logits, targets, reduction="none")
        assert total == pytest.approx(mean * 3)
        assert per.shape == (3,)
        with pytest.raises(ValueError):
            cross_entropy(logits, targets, reduction="bogus")

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(3, 4))), np.zeros((2,), dtype=int))

    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)


class TestBCE:
    def test_matches_manual(self):
        probabilities = Tensor(np.array([[0.9], [0.2]]))
        targets = np.array([[1.0], [0.0]])
        loss = binary_cross_entropy(probabilities, targets)
        expected = -(np.log(0.9) + np.log(0.8)) / 2
        assert loss.item() == pytest.approx(expected)

    def test_stable_at_extremes(self):
        probabilities = Tensor(np.array([[0.0], [1.0]]))
        loss = binary_cross_entropy(probabilities, np.array([[1.0], [0.0]]))
        assert np.isfinite(loss.item())

    def test_gradient_direction(self):
        raw = Tensor(np.array([[0.3]]), requires_grad=True)
        loss = binary_cross_entropy(raw, np.array([[1.0]]))
        loss.backward()
        assert raw.grad[0, 0] < 0  # increasing probability lowers the loss


class TestMSE:
    def test_value_and_gradient(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])
