"""Tests for differentiable functions, including gradient checks."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.gradcheck import check_gradients


class TestActivations:
    def test_relu_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert np.allclose(F.relu(x).data, [0.0, 0.0, 2.0])

    def test_relu_grad_mask(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        F.relu(x).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_sigmoid_range(self):
        x = Tensor(np.linspace(-10, 10, 21))
        y = F.sigmoid(x).data
        assert np.all((y > 0) & (y < 1))

    def test_sigmoid_at_zero(self):
        assert F.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_tanh(self):
        assert F.tanh(Tensor([0.0])).data[0] == 0.0

    def test_exp_log_inverse(self):
        x = Tensor([0.5, 1.0, 2.0])
        assert np.allclose(F.log(F.exp(x)).data, x.data)

    def test_sqrt(self):
        assert np.allclose(F.sqrt(Tensor([4.0, 9.0])).data, [2.0, 3.0])

    def test_absolute(self):
        assert np.allclose(F.absolute(Tensor([-3.0, 2.0])).data, [3.0, 2.0])

    def test_clip_values_and_grad(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        y = F.clip(x, -1.0, 1.0)
        assert np.allclose(y.data, [-1.0, 0.5, 1.0])
        y.sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestStructuralOps:
    def test_concat_values(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        out = F.concat([a, b], axis=1)
        assert out.shape == (2, 5)

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            F.concat([])

    def test_concat_grad_routing(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        out = F.concat([a, b], axis=1)
        out.backward(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
        assert np.allclose(a.grad, [[1.0, 2.0]])
        assert np.allclose(b.grad, [[3.0, 4.0, 5.0]])

    def test_split_inverse_of_concat(self):
        x = Tensor(np.arange(10.0).reshape(2, 5), requires_grad=True)
        parts = F.split(x, [2, 3], axis=1)
        assert parts[0].shape == (2, 2)
        assert parts[1].shape == (2, 3)
        rejoined = F.concat(parts, axis=1)
        assert np.allclose(rejoined.data, x.data)

    def test_split_sizes_checked(self):
        x = Tensor(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            F.split(x, [2, 2], axis=1)

    def test_split_grad(self):
        x = Tensor(np.zeros((1, 4)), requires_grad=True)
        left, right = F.split(x, [1, 3], axis=1)
        (left.sum() + 2.0 * right.sum()).backward()
        assert np.allclose(x.grad, [[1.0, 2.0, 2.0, 2.0]])

    def test_stack(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        s = F.stack([a, b], axis=0)
        assert s.shape == (2, 2)
        s.sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])


class TestGradcheck:
    """Verify every nonlinearity against central differences."""

    @pytest.mark.parametrize(
        "fn",
        [F.sigmoid, F.tanh, F.exp],
        ids=["sigmoid", "tanh", "exp"],
    )
    def test_activation_gradients(self, fn):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert check_gradients(lambda: fn(x).sum(), [x])

    def test_log_sqrt_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        assert check_gradients(lambda: F.log(x).sum(), [x])
        assert check_gradients(lambda: F.sqrt(x).sum(), [x])

    def test_concat_chain_gradient(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

        def fn():
            joined = F.concat([a, b], axis=1)
            return (F.relu(joined) * joined).sum()

        assert check_gradients(fn, [a, b])
