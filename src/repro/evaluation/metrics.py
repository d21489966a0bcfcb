"""Evaluation metrics from the paper's §6 "Evaluation metrics".

* relative prediction error — mean of ``|actual − predicted| / actual``;
* mean absolute error — same units as the target (we report ms and
  convert for display);
* ``R(q)`` — ``max(actual/predicted, predicted/actual)``, the factor by
  which an estimate was off (symmetric, ≥ 1);
* R-bucket table (Table 1) and R-CDF curves (Figure 7b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _validate(actual: np.ndarray, predicted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise ValueError("actual and predicted must be 1-D arrays of equal length")
    if len(actual) == 0:
        raise ValueError("empty evaluation set")
    if np.any(actual <= 0) or np.any(predicted <= 0):
        raise ValueError("latencies must be positive")
    return actual, predicted


def relative_error(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean relative prediction error (paper's first metric)."""
    a, p = _validate(np.asarray(actual), np.asarray(predicted))
    return float(np.mean(np.abs(a - p) / a))


def precision_agreement_gap(
    got: Sequence[float],
    reference: Sequence[float],
    scale_ms: float,
    floor_frac: float = 0.01,
) -> float:
    """Max relative disagreement between two precision tiers' predictions.

    The acceptance metric of the float32 execution tier: float32's
    absolute error tracks the model's working magnitude (the
    featurizer's latency scale), so the denominator is floored at
    ``floor_frac`` of that scale — a prediction far below it is
    "effectively zero latency" and relative error against it measures
    noise amplification, not disagreement.  Used by the precision tests
    and the serving benchmark alike so both enforce one definition.
    """
    got, reference = _validate(got, reference)
    if scale_ms <= 0:
        raise ValueError("scale_ms must be positive")
    floor = floor_frac * scale_ms
    return float(np.max(np.abs(got - reference) / np.maximum(reference, floor)))


def mean_absolute_error(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """MAE in the units of the inputs (ms throughout this library)."""
    a, p = _validate(np.asarray(actual), np.asarray(predicted))
    return float(np.mean(np.abs(a - p)))


def r_values(actual: Sequence[float], predicted: Sequence[float]) -> np.ndarray:
    """Per-query error factors ``R(q)`` (≥ 1)."""
    a, p = _validate(np.asarray(actual), np.asarray(predicted))
    return np.maximum(a / p, p / a)


@dataclass(frozen=True)
class RBuckets:
    """Table 1's three-way split of the test set by error factor."""

    within_1_5: float  # fraction with R <= 1.5
    between_1_5_and_2: float  # 1.5 < R < 2
    beyond_2: float  # R >= 2

    def as_percentages(self) -> tuple[int, int, int]:
        return (
            int(round(100 * self.within_1_5)),
            int(round(100 * self.between_1_5_and_2)),
            int(round(100 * self.beyond_2)),
        )


def r_buckets(actual: Sequence[float], predicted: Sequence[float]) -> RBuckets:
    r = r_values(actual, predicted)
    return RBuckets(
        within_1_5=float(np.mean(r <= 1.5)),
        between_1_5_and_2=float(np.mean((r > 1.5) & (r < 2.0))),
        beyond_2=float(np.mean(r >= 2.0)),
    )


def r_cdf(
    actual: Sequence[float],
    predicted: Sequence[float],
    quantiles: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0),
) -> list[tuple[float, float]]:
    """Figure 7b's curve: (fraction of test set, largest R at that fraction)."""
    r = np.sort(r_values(actual, predicted))
    return [(float(q), float(np.quantile(r, q))) for q in quantiles]


@dataclass(frozen=True)
class AccuracySummary:
    """All headline metrics for one (model, workload) cell."""

    model: str
    workload: str
    relative_error: float
    mae_ms: float
    buckets: RBuckets
    n_queries: int

    def row(self) -> dict[str, object]:
        w15, w2, b2 = self.buckets.as_percentages()
        return {
            "model": self.model,
            "workload": self.workload,
            "relative_error_pct": round(100 * self.relative_error, 1),
            "mae_s": round(self.mae_ms / 1000.0, 2),
            "R<=1.5_pct": w15,
            "1.5<R<2_pct": w2,
            "R>=2_pct": b2,
            "n": self.n_queries,
        }


def summarize(
    model: str, workload: str, actual: Sequence[float], predicted: Sequence[float]
) -> AccuracySummary:
    return AccuracySummary(
        model=model,
        workload=workload,
        relative_error=relative_error(actual, predicted),
        mae_ms=mean_absolute_error(actual, predicted),
        buckets=r_buckets(actual, predicted),
        n_queries=len(list(actual)),
    )
