"""Tests for the from-scratch learners: LinearSVR, RegressionTree, MART."""

import numpy as np
import pytest

from repro.baselines import LinearSVR, MART, RegressionTree


def linear_data(n=300, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 0.5 + noise * rng.normal(size=n)
    return X, y


def step_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.where(X[:, 0] > 0.2, 5.0, 1.0) + np.where(X[:, 1] > 0, 2.0, 0.0)
    return X, y


class TestLinearSVR:
    def test_fits_linear_function(self):
        X, y = linear_data()
        model = LinearSVR(epochs=150).fit(X, y)
        preds = model.predict(X)
        assert np.mean(np.abs(preds - y)) < 0.3

    def test_single_sample_prediction(self):
        X, y = linear_data()
        model = LinearSVR(epochs=50).fit(X, y)
        out = model.predict(X[0])
        assert np.isscalar(out) or out.ndim == 0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LinearSVR().predict(np.zeros(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearSVR(epsilon=-1)
        with pytest.raises(ValueError):
            LinearSVR(C=0)
        with pytest.raises(ValueError):
            LinearSVR().fit(np.zeros((3, 2)), np.zeros(5))

    def test_epsilon_insensitivity(self):
        # With a huge epsilon tube nothing is penalized: weights stay ~0.
        X, y = linear_data()
        model = LinearSVR(epsilon=100.0, epochs=50).fit(X, y)
        assert np.abs(model.w).max() < 0.1


class TestRegressionTree:
    def test_fits_step_function(self):
        X, y = step_data()
        tree = RegressionTree(max_depth=3).fit(X, y)
        preds = tree.predict(X)
        assert np.mean(np.abs(preds - y)) < 0.5

    def test_depth_limit_respected(self):
        X, y = step_data()
        tree = RegressionTree(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        tree = RegressionTree().fit(X, np.full(50, 3.0))
        assert tree.depth() == 0
        assert np.allclose(tree.predict(X), 3.0)

    def test_min_samples_leaf(self):
        X, y = step_data(n=30)
        tree = RegressionTree(max_depth=10, min_samples_leaf=15).fit(X, y)
        assert tree.depth() <= 1

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((3, 2)), np.zeros(4))


class TestMART:
    def test_beats_single_tree(self):
        X, y = step_data()
        rng = np.random.default_rng(1)
        X_test = rng.uniform(-1, 1, size=(200, 2))
        y_test = np.where(X_test[:, 0] > 0.2, 5.0, 1.0) + np.where(X_test[:, 1] > 0, 2.0, 0.0)
        tree = RegressionTree(max_depth=2).fit(X, y)
        mart = MART(n_trees=60, max_depth=2, seed=0).fit(X, y)
        err_tree = np.mean(np.abs(tree.predict(X_test) - y_test))
        err_mart = np.mean(np.abs(mart.predict(X_test) - y_test))
        assert err_mart < err_tree

    def test_single_sample(self):
        X, y = step_data()
        mart = MART(n_trees=5, seed=0).fit(X, y)
        assert np.isscalar(float(mart.predict(X[0])))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MART().predict(np.zeros((1, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            MART(n_trees=0)
        with pytest.raises(ValueError):
            MART(learning_rate=0)
        with pytest.raises(ValueError):
            MART(subsample=0)

    def test_deterministic(self):
        X, y = step_data()
        a = MART(n_trees=10, seed=7).fit(X, y).predict(X)
        b = MART(n_trees=10, seed=7).fit(X, y).predict(X)
        assert np.allclose(a, b)
