"""Online admission control with QPP Net — the paper's §1 motivating use case.

Query performance prediction is "an important primitive for ... admission
control [51]": before running a query, decide whether it fits the
remaining slice of an SLA budget.  This example trains QPP Net on TPC-DS,
then plays the loop the way production plays it — *online*, through
:class:`repro.serving.PredictionService`: queries arrive in bursts, each
is ``submit``-ed to the service and its :class:`Prediction` future
awaited, and the controller admits those whose *predicted* latency fits
the budget.  The service dispatches on arrival: queries that arrive while
a forward runs share the next level-fused batch, so the controller pays
nothing for asking one query at a time.  We compare against an oracle
(true latencies) and a naive optimizer-cost-threshold controller (TAM).

Run:  python examples/admission_control.py
"""

import numpy as np

from repro.baselines import TAMPredictor
from repro.core import QPPNetConfig
from repro.evaluation import train_qppnet_model
from repro.serving import PredictionService
from repro.workload import Workbench, template_holdout_split

LATENCY_BUDGET_MS = 30_000.0  # 30 s per admitted query
ARRIVAL_BURST = 16  # queries arriving close enough to coalesce


def admit(predicted_ms: float) -> bool:
    return predicted_ms <= LATENCY_BUDGET_MS


def main() -> None:
    workbench = Workbench("tpcds", scale_factor=1.0, seed=0)
    corpus = workbench.generate(500, rng=np.random.default_rng(7))
    dataset = template_holdout_split(corpus, n_holdout=10, rng=np.random.default_rng(8))
    print(f"training on {dataset.n_train} queries; "
          f"{dataset.n_test} arriving queries from unseen templates")

    model, _ = train_qppnet_model(
        dataset.train, QPPNetConfig(epochs=40, batch_size=64)
    )
    # The "how would you do it without learning" strawman: calibrated
    # optimizer cost (TAM) as the admission signal.
    tam = TAMPredictor(seed=0).fit(dataset.train)

    outcomes = {"QPP Net": [0, 0], "TAM": [0, 0], "oracle": [0, 0]}
    # [0] = correct decisions, [1] = SLA violations (admitted but too slow)

    with PredictionService(model, max_batch_size=ARRIVAL_BURST) as service:
        for start in range(0, dataset.n_test, ARRIVAL_BURST):
            burst = dataset.test[start : start + ARRIVAL_BURST]
            # Arrivals: each query is submitted individually — the service
            # batches whatever queued while its previous forward ran.
            in_flight = [(sample, service.submit(sample.plan)) for sample in burst]
            for sample, prediction in in_flight:
                qpp_ms = prediction.result()  # await, then decide
                truth_ok = sample.latency_ms <= LATENCY_BUDGET_MS
                decisions = {
                    "QPP Net": admit(qpp_ms),
                    "TAM": admit(tam.predict(sample.plan)),
                    "oracle": truth_ok,
                }
                for name, admitted in decisions.items():
                    if admitted == truth_ok:
                        outcomes[name][0] += 1
                    if admitted and not truth_ok:
                        outcomes[name][1] += 1
        stats = service.stats()

    n = dataset.n_test
    print(f"\nadmission budget: {LATENCY_BUDGET_MS / 1000:.0f}s per query")
    print(f"{'controller':<10} {'correct':>9} {'SLA violations':>15}")
    for name, (correct, violations) in outcomes.items():
        print(f"{name:<10} {correct:>6}/{n:<3} {violations:>15}")
    print(f"\nserving: {stats.completed} predictions in {stats.batches} coalesced "
          f"batches (mean size {stats.mean_batch_size:.1f}); "
          f"p50 {stats.p50_latency_ms:.2f}ms / p99 {stats.p99_latency_ms:.2f}ms")
    print("\nA good predictor tracks the oracle: few wrong admissions and"
          " few wasted rejections, even on query templates it never saw.")


if __name__ == "__main__":
    main()
