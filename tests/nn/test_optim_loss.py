"""Tests for optimizers, losses, LR schedules and serialization."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    StepLR,
    Tensor,
    huber_loss,
    l1_loss,
    load_module,
    make_optimizer,
    mlp,
    mse_loss,
    rmse_loss,
)


def quadratic_param():
    return Tensor(np.array([5.0]), requires_grad=True)


class TestSGD:
    def test_minimizes_quadratic(self):
        x = quadratic_param()
        opt = SGD([x], lr=0.1, momentum=0.0)
        for _ in range(200):
            opt.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            opt.step()
        assert abs(x.data[0]) < 1e-3

    def test_momentum_accelerates(self):
        def run(momentum):
            x = quadratic_param()
            opt = SGD([x], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                (x * x).sum().backward()
                opt.step()
            return abs(float(x.data[0]))

        assert run(0.9) < run(0.0)

    def test_rejects_bad_hyperparams(self):
        x = quadratic_param()
        with pytest.raises(ValueError):
            SGD([x], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([x], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_weight_decay_shrinks(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([x], lr=0.1, momentum=0.0, weight_decay=1.0)
        opt.zero_grad()
        (x * 0.0).sum().backward()  # zero data gradient
        opt.step()
        assert x.data[0] < 1.0

    def test_skips_params_without_grad(self):
        x = quadratic_param()
        opt = SGD([x], lr=0.1)
        opt.step()  # no backward yet; should be a no-op, not an error
        assert x.data[0] == 5.0

    def test_clip_grad_norm(self):
        x = Tensor(np.array([1000.0]), requires_grad=True)
        opt = SGD([x], lr=0.1)
        (x * x).sum().backward()
        pre = opt.clip_grad_norm(1.0)
        assert pre == pytest.approx(2000.0)
        assert np.linalg.norm(x.grad) <= 1.0 + 1e-9


class TestAdam:
    def test_minimizes_quadratic(self):
        x = quadratic_param()
        opt = Adam([x], lr=0.2)
        for _ in range(300):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        assert abs(x.data[0]) < 1e-2

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)


class TestFactoryAndSchedule:
    def test_factory(self):
        x = quadratic_param()
        assert isinstance(make_optimizer("sgd", [x], lr=0.1), SGD)
        assert isinstance(make_optimizer("adam", [x], lr=0.1), Adam)
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", [x], lr=0.1)

    def test_step_lr(self):
        x = quadratic_param()
        opt = SGD([x], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.5)
        sched.step()
        assert opt.lr == 1.0
        sched.step()
        assert opt.lr == 0.5

    def test_step_lr_rejects_bad_step(self):
        with pytest.raises(ValueError):
            StepLR(SGD([quadratic_param()], lr=1.0), step_size=0)

    def test_step_lr_works_with_adam(self):
        """StepLR is typed against Optimizer, not SGD — Adam decays too
        (the trainer's ``hasattr(optimizer, "lr")`` gate relies on it)."""
        opt = Adam([quadratic_param()], lr=0.8)
        sched = StepLR(opt, step_size=1, gamma=0.5)
        sched.step()
        assert opt.lr == pytest.approx(0.4)
        sched.step()
        assert opt.lr == pytest.approx(0.2)


class TestLosses:
    def test_mse_value(self):
        p = Tensor([1.0, 3.0])
        t = Tensor([1.0, 1.0])
        assert mse_loss(p, t).item() == pytest.approx(2.0)

    def test_rmse_is_sqrt_mse(self):
        p = Tensor([2.0, 4.0])
        t = Tensor([0.0, 0.0])
        assert rmse_loss(p, t).item() == pytest.approx(np.sqrt(10.0), rel=1e-5)

    def test_l1_value(self):
        p = Tensor([1.0, -1.0])
        t = Tensor([0.0, 0.0])
        assert l1_loss(p, t).item() == pytest.approx(1.0)

    def test_huber_quadratic_region(self):
        p = Tensor([0.5])
        t = Tensor([0.0])
        assert huber_loss(p, t, delta=1.0).item() == pytest.approx(0.125)

    def test_huber_linear_region(self):
        p = Tensor([3.0])
        t = Tensor([0.0])
        # 0.5*delta^2 + delta*(|d|-delta) = 0.5 + 2 = 2.5
        assert huber_loss(p, t, delta=1.0).item() == pytest.approx(2.5)

    def test_rmse_differentiable_at_zero(self):
        p = Tensor([1.0], requires_grad=True)
        t = Tensor([1.0])
        loss = rmse_loss(p, t)
        loss.backward()  # must not produce NaN
        assert np.isfinite(p.grad).all()


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        net = mlp(4, [8], 2, rng=np.random.default_rng(3))
        path = tmp_path / "model.npz"
        np.savez(path, **net.state_dict())
        net2 = mlp(4, [8], 2, rng=np.random.default_rng(99))
        load_module(net2, path)
        x = Tensor(np.ones((1, 4)))
        assert np.allclose(net(x).data, net2(x).data)


class TestEndToEndTraining:
    def test_mlp_fits_linear_function(self):
        rng = np.random.default_rng(0)
        net = mlp(2, [16], 1, rng=rng)
        opt = SGD(list(net.parameters()), lr=0.05, momentum=0.9)
        x = rng.normal(size=(64, 2))
        y = (2.0 * x[:, :1] - 3.0 * x[:, 1:]) + 1.0
        xt, yt = Tensor(x), Tensor(y)
        first = None
        for _ in range(300):
            opt.zero_grad()
            loss = mse_loss(net(xt), yt)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < 0.01 * first
