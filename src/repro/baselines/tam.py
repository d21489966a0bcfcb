"""The TAM baseline: tuned analytic (calibrated optimizer cost) model.

Hacigumus et al. (ICDE'13), per the paper's §6: "First, some calibration
queries are run to determine the coefficients for the calibrated cost
model.  Then, this calibrated cost model is used to predict the query
latency using the optimizer's cardinality estimates as inputs."  (Our
version, like the paper's, uses optimizer estimates without the data
sampling refinement.)

The model is entirely human-engineered: latency ≈ Σ_u  c_u · n_u over the
five PostgreSQL cost units, with the coefficients ``c_u`` fitted by
non-negative least squares on the calibration queries.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.optimize import nnls

from repro.plans.node import PlanNode
from repro.workload.generator import PlanSample

from .common import resource_counts


class TAMPredictor:
    """Calibrated linear cost-unit model."""

    name = "TAM"

    def __init__(self, n_calibration: Optional[int] = 100, seed: int = 0) -> None:
        """``n_calibration``: how many training queries to use for
        calibration (the original uses a small dedicated calibration
        suite); ``None`` uses the full training set."""
        self.n_calibration = n_calibration
        self.seed = seed
        self.coefficients_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, samples: Sequence[PlanSample]) -> "TAMPredictor":
        if not samples:
            raise ValueError("cannot fit on an empty corpus")
        picked = list(samples)
        if self.n_calibration is not None and len(picked) > self.n_calibration:
            rng = np.random.default_rng(self.seed)
            idx = rng.choice(len(picked), size=self.n_calibration, replace=False)
            picked = [picked[i] for i in idx]
        A = np.vstack([resource_counts(s.plan) for s in picked])
        y = np.array([s.latency_ms for s in picked])
        # Augment with a constant column for fixed startup overhead.
        A_aug = np.column_stack([A, np.ones(len(A))])
        coef, _ = nnls(A_aug, y)
        self.coefficients_ = coef[:-1]
        self.intercept_ = float(coef[-1])
        return self

    def predict(self, plan: PlanNode) -> float:
        if self.coefficients_ is None:
            raise RuntimeError("TAMPredictor is not fitted")
        value = float(resource_counts(plan) @ self.coefficients_) + self.intercept_
        return max(0.01, value)
