"""Tests for the selectivity estimation model."""

import numpy as np
import pytest

from repro.optimizer import SelectivityModel
from repro.queryspec import Predicate, TableRef


class TestPredicateEstimates:
    def test_estimates_positive_and_bounded(self):
        model = SelectivityModel(seed=0)
        for sel in (1e-6, 0.01, 0.5, 1.0):
            est = model.estimate_predicate("t", Predicate("c", "=", sel))
            assert 0.0 < est <= 1.0

    def test_bias_is_systematic_per_column(self):
        model = SelectivityModel(seed=0)
        assert model.column_bias("t", "c", "=") == model.column_bias("t", "c", "=")
        # Different columns get independent biases.
        biases = {model.column_bias("t", f"c{i}", "=") for i in range(20)}
        assert len(biases) == 20

    def test_bias_deterministic_across_instances(self):
        a = SelectivityModel(seed=3)
        b = SelectivityModel(seed=3)
        assert a.column_bias("t", "c", "<") == b.column_bias("t", "c", "<")

    def test_bias_differs_across_seeds(self):
        a = SelectivityModel(seed=1)
        b = SelectivityModel(seed=2)
        assert a.column_bias("t", "c", "<") != b.column_bias("t", "c", "<")

    def test_estimate_tracks_truth_in_expectation(self):
        # Across many columns, the geometric-mean bias is ~1.
        model = SelectivityModel(seed=0)
        true = 0.1
        ests = [
            model.estimate_predicate("t", Predicate(f"c{i}", "=", true))
            for i in range(300)
        ]
        assert 0.05 < np.exp(np.mean(np.log(ests))) < 0.2

    def test_estimate_deterministic_per_value(self):
        model = SelectivityModel(seed=0)
        p = Predicate("c", "<", 0.3)
        assert model.estimate_predicate("t", p) == model.estimate_predicate("t", p)


class TestScanEstimates:
    def test_no_predicates_estimates_one(self):
        model = SelectivityModel(seed=0)
        assert model.estimate_scan(TableRef("t", "t")) == 1.0

    def test_independence_multiplies(self):
        model = SelectivityModel(seed=0, wobble_sigma=0.0)
        p1, p2 = Predicate("a", "=", 0.1), Predicate("b", "=", 0.2)
        single_a = model.estimate_scan(TableRef("t", "t", (p1,)))
        single_b = model.estimate_scan(TableRef("t", "t", (p2,)))
        both = model.estimate_scan(TableRef("t", "t", (p1, p2)))
        assert both == pytest.approx(single_a * single_b, rel=1e-9)

    def test_correlated_truth_exceeds_independent_product(self):
        preds = (Predicate("a", "=", 0.1), Predicate("b", "=", 0.1))
        independent = TableRef("t", "t", preds, correlation=0.0)
        correlated = TableRef("t", "t", preds, correlation=1.0)
        assert correlated.true_selectivity() > independent.true_selectivity()
        assert correlated.true_selectivity() == pytest.approx(0.1)
        assert independent.true_selectivity() == pytest.approx(0.01)


class TestJoinModel:
    def test_join_selectivity_formula(self):
        model = SelectivityModel()
        assert model.estimate_join_selectivity(100, 1000) == pytest.approx(1 / 1000)
        assert model.estimate_join_selectivity(0, 0) == 1.0  # guards /0
