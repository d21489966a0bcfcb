"""Tests for the §6 evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.evaluation import (
    mean_absolute_error,
    r_buckets,
    r_cdf,
    r_values,
    relative_error,
    summarize,
)

latencies = st.lists(
    st.floats(min_value=0.1, max_value=1e6, allow_nan=False), min_size=1, max_size=50
)


class TestRelativeError:
    def test_perfect_prediction_zero(self):
        assert relative_error([10.0, 20.0], [10.0, 20.0]) == 0.0

    def test_known_value(self):
        # |10-5|/10 = 0.5, |20-30|/20 = 0.5
        assert relative_error([10.0, 20.0], [5.0, 30.0]) == pytest.approx(0.5)

    def test_underestimate_bounded_at_one(self):
        # The paper notes relative error favours underestimates: a tiny
        # prediction can cost at most 1.0 per query.
        assert relative_error([100.0], [0.001]) <= 1.0

    def test_overestimate_unbounded(self):
        assert relative_error([1.0], [100.0]) == pytest.approx(99.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_error([], [])
        with pytest.raises(ValueError):
            relative_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            relative_error([0.0], [1.0])


class TestMAE:
    def test_known_value(self):
        assert mean_absolute_error([10.0, 20.0], [12.0, 16.0]) == pytest.approx(3.0)

    def test_symmetric(self):
        a = mean_absolute_error([10.0], [14.0])
        b = mean_absolute_error([14.0], [10.0])
        assert a == b


class TestRValues:
    def test_r_of_perfect_is_one(self):
        assert np.allclose(r_values([5.0], [5.0]), 1.0)

    def test_r_symmetric(self):
        # Paper: off by 2x either way gives R = 2.
        assert r_values([1.0], [2.0])[0] == pytest.approx(2.0)
        assert r_values([4.0], [2.0])[0] == pytest.approx(2.0)

    @given(latencies)
    def test_r_at_least_one(self, values):
        actual = np.asarray(values)
        predicted = actual * 1.3
        assert (r_values(actual, predicted) >= 1.0).all()

    def test_buckets_sum_to_one(self):
        actual = np.array([1.0, 1.0, 1.0, 1.0])
        predicted = np.array([1.0, 1.6, 2.5, 1.4])
        b = r_buckets(actual, predicted)
        assert b.within_1_5 + b.between_1_5_and_2 + b.beyond_2 == pytest.approx(1.0)
        assert b.within_1_5 == pytest.approx(0.5)
        assert b.between_1_5_and_2 == pytest.approx(0.25)
        assert b.beyond_2 == pytest.approx(0.25)

    def test_bucket_percentages(self):
        b = r_buckets([1.0, 1.0], [1.0, 3.0])
        assert b.as_percentages() == (50, 0, 50)

    def test_cdf_monotone(self):
        rng = np.random.default_rng(0)
        actual = rng.uniform(1, 100, 50)
        predicted = actual * np.exp(rng.normal(0, 0.3, 50))
        curve = r_cdf(actual, predicted)
        values = [v for _, v in curve]
        assert values == sorted(values)
        assert curve[-1][0] == 1.0


class TestSummarize:
    def test_summary_roundtrip(self):
        s = summarize("M", "W", [10.0, 100.0], [11.0, 90.0])
        row = s.row()
        assert row["model"] == "M"
        assert row["workload"] == "W"
        assert row["n"] == 2
