"""Per-operator-type accuracy drill-down.

Eq. 7 trains QPP Net on the latency of *every* operator, so the model
makes a prediction at each node — not just the root.  This module scores
those intermediate predictions per logical operator type, which is how
one debugs a trained model ("the sort unit is fine, the join unit drags")
and how the paper's claim that the loss "minimizes the prediction error
for all the operators" can be verified empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import QPPNet
from repro.plans.operators import LogicalType
from repro.serving import InferenceSession
from repro.workload.generator import PlanSample


@dataclass(frozen=True)
class OperatorAccuracy:
    """Accuracy of one unit's latency predictions across a corpus."""

    logical_type: LogicalType
    n_instances: int
    mae_ms: float
    relative_error: float
    mean_actual_ms: float

    def row(self) -> dict[str, object]:
        return {
            "operator": self.logical_type.value,
            "instances": self.n_instances,
            "mae_s": round(self.mae_ms / 1000.0, 3),
            "relative_error_pct": round(100 * self.relative_error, 1),
            "mean_actual_s": round(self.mean_actual_ms / 1000.0, 3),
        }


def operator_level_accuracy(
    model: QPPNet, samples: Sequence[PlanSample]
) -> list[OperatorAccuracy]:
    """Score every unit's predictions over ``samples`` (analyzed plans).

    All plans run as one level-fused batch
    (:meth:`~repro.serving.InferenceSession.predict_operators_batch`).
    """
    plans = [sample.plan for sample in samples]
    actual: dict[LogicalType, list[float]] = {}
    predicted: dict[LogicalType, list[float]] = {}
    for plan, preds in zip(plans, InferenceSession(model).predict_operators_batch(plans)):
        for node, pred in zip(plan.preorder(), preds):
            if node.actual_total_ms is None:
                raise ValueError("operator_level_accuracy requires analyzed plans")
            actual.setdefault(node.logical_type, []).append(node.actual_total_ms)
            predicted.setdefault(node.logical_type, []).append(pred)

    results = []
    for ltype in sorted(actual, key=lambda t: t.value):
        a = np.asarray(actual[ltype])
        p = np.asarray(predicted[ltype])
        safe = np.maximum(a, 1e-9)
        results.append(
            OperatorAccuracy(
                logical_type=ltype,
                n_instances=len(a),
                mae_ms=float(np.mean(np.abs(a - p))),
                relative_error=float(np.mean(np.abs(a - p) / safe)),
                mean_actual_ms=float(a.mean()),
            )
        )
    return results
