"""Tests for optimizers and loss functions."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Linear, Tensor, cross_entropy
from repro.nn.losses import bce_value_and_grad, mse_loss
from repro.nn.optim import clip_grad_norm_, global_grad_norm

from tests.reference import gan as reference_gan
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


    @staticmethod
    def _twins(values, **kwargs):
        return [
            Adam([Tensor(v.copy(), requires_grad=True) for v in values], **kwargs)
            for _ in range(2)
        ]

    def test_parameter_without_gradient_untouched(self, rng):
        values = [rng.normal(size=(3, 2)), rng.normal(size=(4,)), rng.normal(size=(2,))]
        fast, slow = self._twins(values, learning_rate=0.05)
        for _ in range(4):
            for index in (0, 2):  # the middle parameter never has a gradient
                grad = rng.normal(size=values[index].shape)
                fast.parameters[index].grad = grad.copy()
                slow.parameters[index].grad = grad.copy()
            fast.step()
            reference.adam_step(slow)
        assert fast.parameters[1].data.tobytes() == values[1].tobytes()
        assert not fast._m[1].any() and not fast._v[1].any()
        for a, b in zip(fast.parameters, slow.parameters):
            assert a.data.tobytes() == b.data.tobytes()
        for a, b in zip(fast._m + fast._v, slow._m + slow._v):
            assert a.tobytes() == b.tobytes()

    def test_state_dict_round_trip(self, rng):
        values = [rng.normal(size=(3, 2)), rng.normal(size=(2,))]
        trained, restored = self._twins(values, learning_rate=0.05)
        for _ in range(3):
            for param in trained.parameters:
                param.grad = rng.normal(size=param.shape)
            trained.step()
        for source, target in zip(trained.parameters, restored.parameters):
            target.data[...] = source.data
        restored.load_state_dict(trained.state_dict())
        state, again = trained.state_dict(), restored.state_dict()
        assert state["step_count"] == again["step_count"] == 3
        assert state["learning_rate"] == again["learning_rate"]
        for key in ("m", "v"):
            assert [a.tobytes() for a in state[key]] == [
                b.tobytes() for b in again[key]
            ]
        grads = [rng.normal(size=p.shape) for p in trained.parameters]
        for optimizer in (trained, restored):
            for param, grad in zip(optimizer.parameters, grads):
                param.grad = grad.copy()
            optimizer.step()
        for a, b in zip(trained.parameters, restored.parameters):
            assert a.data.tobytes() == b.data.tobytes()

    def test_module_load_state_dict_keeps_optimizer_views(self, rng):
        """Weights are views of the optimizer's buffer, so loading writes
        in place and the next step updates the loaded weights."""
        layer = Linear(3, 2, rng)
        optimizer = Adam(layer.parameters(), learning_rate=0.1)
        saved = layer.state_dict()
        for param in layer.parameters():
            param.data[...] = 7.0
        layer.load_state_dict(saved)
        for param in layer.parameters():
            param.grad = np.ones(param.shape)
        optimizer.step()
        np.testing.assert_allclose(layer.weight.data, saved["weight"] - 0.1)


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
        probabilities = np.array([[0.9], [0.2]])
        targets = np.array([[1.0], [0.0]])
        loss, _ = bce_value_and_grad(probabilities, targets)
        expected = -(np.log(0.9) + np.log(0.8)) / 2
        assert loss == pytest.approx(expected)

    def test_stable_at_extremes(self):
        loss, grad = bce_value_and_grad(
            np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]])
        )
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_gradient_direction(self):
        _, grad = bce_value_and_grad(np.array([[0.3]]), np.array([[1.0]]))
        assert grad[0, 0] < 0  # increasing probability lowers the loss

    def test_bit_identical_to_autograd(self, rng):
        """Value and gradient equal the ``Tensor`` BCE's, bit for bit, at
        random, clamped (0 and 1) and near-clamp probabilities."""
        probabilities = np.concatenate(
            [rng.random((29, 1)), [[0.0], [1.0], [1.0 - 1e-7 + 1e-12]]]
        )
        for targets in (np.ones((32, 1)), np.zeros((32, 1)),
                        (rng.random((32, 1)) < 0.5).astype(float)):
            tensor = Tensor(probabilities.copy(), requires_grad=True)
            expected = reference_gan.binary_cross_entropy(tensor, targets)
            expected.backward()
            loss, grad = bce_value_and_grad(probabilities, targets)
            assert loss == expected.item()
            np.testing.assert_array_equal(grad, tensor.grad)


class TestMSE:
    def test_value_and_gradient(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])
