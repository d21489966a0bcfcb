"""Model bake-off: the paper's evaluation in miniature.

Trains all four predictors (QPP Net + the TAM/SVM/RBF baselines) on both
workloads with the paper's §6 split protocol and prints the Figure 7a /
Table 1 style comparison, plus a per-query drill-down of the worst
predictions of each model.

Run:  python examples/model_bakeoff.py
"""

import numpy as np

from repro.core import QPPNetConfig
from repro.evaluation import MODEL_ORDER, evaluate_models, r_values
from repro.serving import ModelRegistry
from repro.workload import Workbench, random_split, template_holdout_split


def main() -> None:
    config = QPPNetConfig(epochs=60, batch_size=64)
    # One registry serving both workloads' QPP Nets side by side.
    registry = ModelRegistry()
    for workload, label in (("tpch", "TPC-H"), ("tpcds", "TPC-DS")):
        workbench = Workbench(workload, scale_factor=1.0, seed=0)
        # Deep-learning predictors are data hungry: the TPC-DS template
        # holdout needs a reasonable corpus even for a demo (the full
        # evaluation in benchmarks/ uses more queries and epochs).
        n = 400 if workload == "tpch" else 1100
        corpus = workbench.generate(n, rng=np.random.default_rng(11))
        if workload == "tpch":
            dataset = random_split(corpus, 0.1, np.random.default_rng(12))
        else:
            dataset = template_holdout_split(corpus, 10, np.random.default_rng(12))
        result = evaluate_models(dataset, label, config)

        print(f"\n=== {label} ({dataset.n_train} train / {dataset.n_test} test) ===")
        print(f"{'model':<9} {'rel err':>8} {'MAE (s)':>8} {'R<=1.5':>7}")
        for model in MODEL_ORDER:
            s = result.summaries[model]
            w15, _, _ = s.buckets.as_percentages()
            print(
                f"{model:<9} {100 * s.relative_error:>7.1f}% "
                f"{s.mae_ms / 1000:>8.2f} {w15:>6}%"
            )

        # Worst miss per model: which query fooled it, and by how much?
        print("worst miss per model:")
        for model in MODEL_ORDER:
            r = r_values(result.actuals, result.predictions[model])
            worst = int(np.argmax(r))
            print(
                f"  {model:<9} {result.test_templates[worst]:<12} off by"
                f" {r[worst]:.1f}x (actual {result.actuals[worst] / 1000:.2f}s)"
            )

        registry.register(workload, result.models["QPP Net"])

    # Both trained QPP Nets stay loaded and servable: any later batch of
    # plans routes to its workload's session (its structure memo and the
    # model's level plans stay warm).
    print(f"\nregistry serving models: {registry.names()}")
    for name in registry:
        session = registry.session(name)
        print(f"  {name}: {len(session.model.units)} units ready for predict_batch")


if __name__ == "__main__":
    main()
