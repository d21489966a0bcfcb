"""Tests for the three baseline latency predictors."""

import numpy as np
import pytest

from repro.baselines import (
    LatencyPredictor,
    RBFPredictor,
    SVMPredictor,
    TAMPredictor,
    operator_features,
    plan_features,
    resource_counts,
    self_cost,
)
from repro.workload import Workbench, random_split


@pytest.fixture(scope="module")
def dataset():
    wb = Workbench("tpch", seed=0)
    samples = wb.generate(110, rng=np.random.default_rng(2))
    return random_split(samples, 0.2, np.random.default_rng(3))


@pytest.fixture(scope="module", params=[TAMPredictor, SVMPredictor, RBFPredictor])
def fitted(request, dataset):
    model = request.param(seed=0)
    model.fit(dataset.train)
    return model


class TestSharedBehaviour:
    def test_implements_protocol(self, fitted):
        assert isinstance(fitted, LatencyPredictor)

    def test_predictions_positive(self, fitted, dataset):
        for sample in dataset.test:
            assert fitted.predict(sample.plan) > 0

    def test_better_than_mean_guess(self, fitted, dataset):
        actuals = np.array([s.latency_ms for s in dataset.test])
        preds = np.array([fitted.predict(s.plan) for s in dataset.test])
        mean_guess = np.mean([s.latency_ms for s in dataset.train])
        assert np.mean(np.abs(preds - actuals)) < np.mean(np.abs(mean_guess - actuals))

    def test_unfitted_raises(self, dataset):
        for cls in (TAMPredictor, SVMPredictor, RBFPredictor):
            with pytest.raises(RuntimeError):
                cls().predict(dataset.test[0].plan)

    def test_empty_fit_rejected(self):
        for cls in (TAMPredictor, SVMPredictor, RBFPredictor):
            with pytest.raises(ValueError):
                cls().fit([])


class TestFeatureHelpers:
    def test_operator_features_finite(self, dataset):
        for node in dataset.train[0].plan.preorder():
            f = operator_features(node)
            assert np.isfinite(f).all()
            assert f.shape == (8,)

    def test_self_cost_nonnegative(self, dataset):
        for node in dataset.train[0].plan.preorder():
            assert self_cost(node) >= 0

    def test_plan_features_shape(self, dataset):
        f = plan_features(dataset.train[0].plan)
        assert np.isfinite(f).all()
        assert len(f) == 6 + 7  # base + per-logical-type counts

    def test_resource_counts(self, dataset):
        counts = resource_counts(dataset.train[0].plan)
        assert counts.shape == (5,)
        assert (counts >= 0).all()


class TestTAM:
    def test_calibration_subset(self, dataset):
        few = TAMPredictor(n_calibration=10, seed=0).fit(dataset.train)
        assert few.coefficients_ is not None

    def test_linear_in_counts(self, dataset):
        # TAM is a linear model: doubling all resource counts ~doubles the
        # prediction minus intercept.
        model = TAMPredictor(seed=0).fit(dataset.train)
        plan = dataset.test[0].plan
        base = model.predict(plan) - model.intercept_
        counts = resource_counts(plan)
        assert base == pytest.approx(float(counts @ model.coefficients_), rel=1e-9)


class TestSVM:
    def test_plan_level_fallback_on_unseen_structure(self, dataset):
        model = SVMPredictor(seed=0)
        model.fit(dataset.train)
        # Erase the known signatures: every plan now triggers the check.
        model._seen_signatures = set()
        # Known operator types -> still operator-level path.
        assert not model._use_plan_level(dataset.test[0].plan)

    def test_hierarchical_monotonicity(self, dataset):
        # A parent's predicted cumulative latency >= its children's.
        model = SVMPredictor(seed=0).fit(dataset.train)
        from repro.baselines.common import predict_hierarchical

        plan = dataset.test[0].plan
        memo = {}
        for node in plan.postorder():
            child_sum = sum(memo[id(c)] for c in node.children)
            pred = model._predict_node(node.logical_type, operator_features(node), child_sum)
            assert pred >= child_sum - 1e-9
            memo[id(node)] = pred


class TestRBF:
    def test_additive_composition(self, dataset):
        model = RBFPredictor(n_trees=20, seed=0).fit(dataset.train)
        plan = dataset.test[0].plan
        total = model.predict(plan)
        parts = sum(model.predict_operator_self(n) for n in plan.preorder())
        assert total == pytest.approx(parts, rel=1e-9)

    def test_self_latency_nonnegative(self, dataset):
        model = RBFPredictor(n_trees=20, seed=0).fit(dataset.train)
        for node in dataset.test[0].plan.preorder():
            assert model.predict_operator_self(node) >= 0
