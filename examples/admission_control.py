"""Online admission control with QPP Net — the paper's §1 motivating use case.

Query performance prediction is "an important primitive for ... admission
control [51]": before running a query, decide whether it fits the
remaining slice of an SLA budget.  This example trains QPP Net on TPC-DS,
then plays the loop the way production plays it — *online*, through
:class:`repro.serving.PredictionService`: queries arrive in bursts, each
is ``submit``-ed to the service with a ``deadline_ms`` for its
prediction and its :class:`Prediction` future awaited, and the
controller admits those whose *predicted* latency fits the budget.  The
budget is the median latency of the training queries, fixed before any
query arrives, so a controller must tell fast queries from slow ones
rather than admit everything.  A prediction that cannot arrive in time
— the service's own queue-wait prediction sheds it at submit, or it
expires while queued — raises :class:`~repro.serving.DeadlineExceededError`,
and the controller rejects that query.  The service dispatches on arrival: queries that
arrive while a forward runs form the next batch, which runs plan by plan
through memoized per-structure plans when small and as one level-fused
forward when larger, so the controller pays little for asking one query
at a time.  We compare against an oracle (true latencies) and a naive
optimizer-cost-threshold controller (TAM).

Run:  python examples/admission_control.py
"""

import numpy as np

from repro.baselines import TAMPredictor
from repro.core import QPPNetConfig
from repro.evaluation import train_qppnet_model
from repro.serving import DeadlineExceededError, PredictionService
from repro.workload import Workbench, template_holdout_split

ARRIVAL_BURST = 16  # queries arriving close enough to coalesce
DECISION_DEADLINE_MS = 250.0  # the controller's wait for one prediction


def main() -> None:
    workbench = Workbench("tpcds", scale_factor=1.0, seed=0)
    corpus = workbench.generate(500, rng=np.random.default_rng(7))
    dataset = template_holdout_split(corpus, n_holdout=10, rng=np.random.default_rng(8))
    print(f"training on {dataset.n_train} queries; "
          f"{dataset.n_test} arriving queries from unseen templates")
    # The SLA budget per admitted query: the median training latency.
    # Only training data sets it, never the arriving queries.
    budget_ms = float(np.median([s.latency_ms for s in dataset.train]))

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
            in_flight = []
            for sample in burst:
                try:
                    handle = service.submit(sample.plan, deadline_ms=DECISION_DEADLINE_MS)
                except DeadlineExceededError:  # shed at submit: no prediction in time
                    handle = None
                in_flight.append((sample, handle))
            for sample, handle in in_flight:
                try:
                    qpp_ms = handle.result() if handle is not None else None  # await
                except DeadlineExceededError:  # expired while queued
                    qpp_ms = None
                truth_ok = sample.latency_ms <= budget_ms
                decisions = {
                    # No prediction before the deadline: reject the query.
                    "QPP Net": qpp_ms is not None and qpp_ms <= budget_ms,
                    "TAM": tam.predict(sample.plan) <= budget_ms,
                    "oracle": truth_ok,
                }
                for name, admitted in decisions.items():
                    if admitted == truth_ok:
                        outcomes[name][0] += 1
                    if admitted and not truth_ok:
                        outcomes[name][1] += 1
        stats = service.stats()

    n = dataset.n_test
    print(f"\nadmission budget: {budget_ms / 1000:.1f}s per query "
          "(median training latency)")
    print(f"{'controller':<10} {'correct':>9} {'SLA violations':>15}")
    for name, (correct, violations) in outcomes.items():
        print(f"{name:<10} {correct:>6}/{n:<3} {violations:>15}")
    print(f"\nserving: {stats.completed} predictions in {stats.batches} coalesced "
          f"batches (mean size {stats.mean_batch_size:.1f}); "
          f"p50 {stats.p50_latency_ms:.2f}ms / p99 {stats.p99_latency_ms:.2f}ms; "
          f"{stats.deadline_rejected + stats.deadline_expired} missed the "
          f"{DECISION_DEADLINE_MS:.0f}ms decision deadline (rejected)")
    print("\nA good predictor tracks the oracle: few wrong admissions and"
          " few wasted rejections, even on query templates it never saw.")


if __name__ == "__main__":
    main()
