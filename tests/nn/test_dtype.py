"""Precision tiers at the nn substrate level (ISSUE 5).

float64 stays the default and the reference; float32 must flow through
tensors, layers, the flat parameter space, the fused optimizer steps and
the ``.npz`` serializer without ever silently promoting back.
"""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    FlatParameterSpace,
    Linear,
    Tensor,
    load_module,
    mlp,
)


class TestTensorDtype:
    def test_float64_default_preserved(self):
        assert Tensor([1.0, 2.0]).data.dtype == np.float64
        assert Tensor(np.arange(3)).data.dtype == np.float64  # ints promote

    def test_float32_content_preserved(self):
        t = Tensor(np.ones(4, dtype=np.float32))
        assert t.data.dtype == np.float32

    def test_float32_ops_stay_float32(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((3, 2), dtype=np.float32))
        out = ((a @ b) * 2.0).sum()
        assert out.data.dtype == np.float32
        out.backward()
        assert a.grad.dtype == np.float32


class TestLayerDtype:
    def test_linear_dtype_and_same_init_stream(self):
        f64 = Linear(4, 3, rng=np.random.default_rng(0))
        f32 = Linear(4, 3, rng=np.random.default_rng(0), dtype=np.float32)
        assert f64.weight.data.dtype == np.float64
        assert f32.weight.data.dtype == np.float32
        # Same rng draws: the float32 layer is the rounded float64 init.
        assert np.array_equal(f32.weight.data, f64.weight.data.astype(np.float32))
        assert np.array_equal(f32.bias.data, f64.bias.data.astype(np.float32))

    def test_mlp_forward_paths_stay_float32(self):
        net = mlp(3, [5], 2, rng=np.random.default_rng(1), dtype=np.float32)
        x = np.random.default_rng(2).standard_normal((4, 3)).astype(np.float32)
        assert net.forward_numpy(x).dtype == np.float32
        y, tape = net.forward_train(x)
        assert y.dtype == np.float32
        grad = net.backward_train(np.ones_like(y), tape)
        assert grad.dtype == np.float32
        for p in net.parameters():
            assert p.grad.dtype == np.float32

    def test_load_state_dict_casts_to_module_dtype(self):
        f64 = mlp(3, [4], 1, rng=np.random.default_rng(3))
        f32 = mlp(3, [4], 1, rng=np.random.default_rng(4), dtype=np.float32)
        f32.load_state_dict(f64.state_dict())
        for (_, a), (_, b) in zip(f32.named_parameters(), f64.named_parameters()):
            assert a.data.dtype == np.float32
            assert np.array_equal(a.data, b.data.astype(np.float32))


class TestFlatSpaceDtype:
    def test_adopts_parameter_dtype(self):
        net = mlp(3, [4], 2, rng=np.random.default_rng(5), dtype=np.float32)
        space = FlatParameterSpace(net.parameters())
        assert space.data.dtype == np.float32
        assert space.grad.dtype == np.float32
        for p in net.parameters():
            assert p.data.dtype == np.float32
            assert np.shares_memory(p.data, space.data)

    def test_rejects_mixed_dtypes(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError, match="uniform parameter dtype"):
            FlatParameterSpace([a, b])

    def test_clip_stays_float32(self):
        net = mlp(3, [4], 2, rng=np.random.default_rng(6), dtype=np.float32)
        space = FlatParameterSpace(net.parameters())
        space.zero_grad()
        space.grad[:] = 10.0
        space.clip_grad_norm_(1.0)
        assert space.grad.dtype == np.float32
        assert np.linalg.norm(space.grad) == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("opt_cls,kwargs", [(SGD, {"momentum": 0.9}), (Adam, {})])
class TestFusedStepFloat32:
    def test_step_flat_matches_loop_in_float32(self, opt_cls, kwargs):
        """The fused update in float32 equals the per-parameter loop run
        on identical float32 params/grads — the fusion must not change
        the arithmetic, only batch it."""
        net_loop = mlp(3, [5], 2, rng=np.random.default_rng(7), dtype=np.float32)
        net_flat = mlp(3, [5], 2, rng=np.random.default_rng(7), dtype=np.float32)
        opt_loop = opt_cls(list(net_loop.parameters()), lr=0.05, **kwargs)
        params_flat = list(net_flat.parameters())
        opt_flat = opt_cls(params_flat, lr=0.05, **kwargs)
        space = FlatParameterSpace(params_flat)
        rng = np.random.default_rng(8)
        for _ in range(4):
            space.zero_grad()
            for pa, pb in zip(net_loop.parameters(), net_flat.parameters()):
                grad = rng.normal(size=pa.data.shape).astype(np.float32)
                pa.grad = grad.copy()
                pb.grad[...] = grad
            opt_loop.step()
            opt_flat.step_flat(space)
        assert space.data.dtype == np.float32
        for pa, pb in zip(net_loop.parameters(), net_flat.parameters()):
            assert pb.data.dtype == np.float32
            # Loop and fused apply the same ops in a different grouping;
            # float32 rounding may differ in the last ulp or two.
            assert np.allclose(pa.data, pb.data, atol=1e-6)

    def test_optimizer_state_is_float32(self, opt_cls, kwargs):
        net = mlp(3, [4], 1, rng=np.random.default_rng(9), dtype=np.float32)
        params = list(net.parameters())
        opt = opt_cls(params, lr=0.01, **kwargs)
        space = FlatParameterSpace(params)
        space.zero_grad()
        space.grad[:] = 0.5
        opt.step_flat(space)
        state = opt._flat_velocity if opt_cls is SGD else opt._flat_m
        assert state.dtype == np.float32


class TestSerializeDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_npz_round_trip_preserves_dtype_bitwise(self, tmp_path, dtype):
        net = mlp(3, [4], 2, rng=np.random.default_rng(10), dtype=dtype)
        path = tmp_path / "net.npz"
        np.savez(path, **net.state_dict())
        clone = mlp(3, [4], 2, rng=np.random.default_rng(11), dtype=dtype)
        load_module(clone, path)
        for (_, a), (_, b) in zip(clone.named_parameters(), net.named_parameters()):
            assert a.data.dtype == np.dtype(dtype)
            assert np.array_equal(a.data, b.data)

    def test_cross_dtype_load_casts(self, tmp_path):
        """A float32 checkpoint loads into a float64 module (and stays
        float64) — checkpoints are portable across precision tiers."""
        f32 = mlp(3, [4], 2, rng=np.random.default_rng(12), dtype=np.float32)
        path = tmp_path / "f32.npz"
        np.savez(path, **f32.state_dict())
        f64 = mlp(3, [4], 2, rng=np.random.default_rng(13))
        load_module(f64, path)
        for (_, a), (_, b) in zip(f64.named_parameters(), f32.named_parameters()):
            assert a.data.dtype == np.float64
            assert np.array_equal(a.data.astype(np.float32), b.data)
