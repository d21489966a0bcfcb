"""Unit tests for the autodiff Tensor: op semantics and gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, ones, tensor, zeros
from repro.nn.tensor import unbroadcast


class TestConstruction:
    def test_wraps_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_factories(self):
        assert zeros((2, 3)).data.sum() == 0.0
        assert ones((2, 3)).data.sum() == 6.0
        assert tensor([1.0], requires_grad=True).requires_grad

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_scalar(self):
        assert Tensor([[4.0]]).item() == 4.0

    def test_item_rejects_multi_element(self):
        with pytest.raises(ValueError, match="exactly one element"):
            Tensor([1.0, 2.0]).item()

    def test_item_rejects_empty(self):
        with pytest.raises(ValueError, match="exactly one element"):
            Tensor(np.zeros((0, 3))).item()

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 2)))
        assert len(t) == 4
        assert t.size == 8
        assert t.ndim == 2


class TestArithmetic:
    def test_add(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])

    def test_add_scalar_right_and_left(self):
        a = Tensor([1.0])
        assert (a + 1.0).data[0] == 2.0
        assert (1.0 + a).data[0] == 2.0

    def test_sub_and_rsub(self):
        a = Tensor([5.0])
        assert (a - 2.0).data[0] == 3.0
        assert (10.0 - a).data[0] == 5.0

    def test_mul_and_div(self):
        a = Tensor([6.0])
        assert (a * 2.0).data[0] == 12.0
        assert (a / 3.0).data[0] == 2.0
        assert (12.0 / a).data[0] == 2.0

    def test_neg(self):
        assert (-Tensor([2.0])).data[0] == -2.0

    def test_pow(self):
        assert (Tensor([3.0]) ** 2).data[0] == 9.0

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose((a @ b).data, b.data)


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + 3.0 * x  # dy/dx = 2x + 3 = 7
        y.backward()
        assert np.allclose(x.grad, [7.0])

    def test_grad_accumulates_across_uses(self):
        x = Tensor([1.0], requires_grad=True)
        y = x + x + x
        y.backward()
        assert np.allclose(x.grad, [3.0])

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_grad_shape_checked(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(ValueError):
            y.backward(np.ones(3))

    def test_matmul_grads(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        w = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
        out = (a @ w).sum()
        out.backward()
        assert np.allclose(a.grad, [[3.0, 4.0]])
        assert np.allclose(w.grad, [[1.0], [2.0]])

    def test_div_grads(self):
        a = Tensor([8.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-2.0])

    def test_diamond_graph(self):
        # x feeds two paths that rejoin: grads must sum once per path.
        x = Tensor([3.0], requires_grad=True)
        a = x * 2.0
        b = x * 5.0
        y = a + b
        y.backward()
        assert np.allclose(x.grad, [7.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        # Iterative topological sort must handle graphs deeper than the
        # Python recursion limit.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward()
        assert np.allclose(x.grad, [1.0])


class TestBroadcasting:
    def test_unbroadcast_identity(self):
        g = np.ones((3, 2))
        assert unbroadcast(g, (3, 2)).shape == (3, 2)

    def test_unbroadcast_leading_axis(self):
        g = np.ones((4, 3))
        out = unbroadcast(g, (3,))
        assert out.shape == (3,)
        assert np.allclose(out, 4.0)

    def test_unbroadcast_kept_axis(self):
        g = np.ones((4, 3))
        out = unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        assert np.allclose(out, 4.0)

    def test_bias_broadcast_grad(self):
        x = Tensor(np.ones((5, 2)))
        b = Tensor([1.0, 2.0], requires_grad=True)
        ((x + b).sum()).backward()
        assert np.allclose(b.grad, [5.0, 5.0])


class TestReductionsAndShape:
    def test_sum_all(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, np.ones((2, 3)))

    def test_sum_axis(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        s = x.sum(axis=0)
        assert s.shape == (3,)
        s.backward(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x.grad, [[1, 2, 3], [1, 2, 3]])

    def test_sum_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        x = Tensor([2.0, 4.0], requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_mean_axis(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        m = x.mean(axis=1)
        assert np.allclose(m.data, [1.0, 1.0])

    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        y = x.reshape(2, 3).sum()
        y.backward()
        assert x.grad.shape == (6,)

    def test_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x.T
        assert y.shape == (3, 2)
        y.sum().backward()
        assert x.grad.shape == (2, 3)

    def test_getitem_grad(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        y = x[1:3].sum()
        y.backward()
        assert np.allclose(x.grad, [0, 1, 1, 0, 0])
