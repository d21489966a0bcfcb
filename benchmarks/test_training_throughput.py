"""BENCH: training throughput — taped autodiff vs level-fused, and the
float32 precision tier vs the float64 reference.

Trains the same model (mode ``both``, the paper's configuration) on a
512-plan mixed-template TPC-H corpus under both execution engines and
measures epochs/sec:

* ``taped`` — the autodiff reference;
* ``fused`` — cross-structure level fusion: one matmul per unit type
  per tree depth for the whole batch.

A second measurement (ISSUE 5) runs the fused engine at both compute
precisions: ``QPPNetConfig(dtype="float32")`` halves the byte width of
parameters, features, activations, gradients and optimizer state, which
on these memory-bandwidth-bound matmuls is a direct epoch-throughput
win.

Acceptance bars: fused >= 3.0 x ``BENCH_FUSED_MIN_SPEEDUP`` x taped
(4.5x locally; CI relaxes ``BENCH_FUSED_MIN_SPEEDUP`` to 1.3, so 3.9x,
on noisy shared runners) — the product of the retired per-group
engine's two bars, compiled >= 3x taped and fused >= 1.5x compiled;
float32 fused >= 1.3x float64 fused (measured ~1.4-1.5x on a quiet
machine, gated at 1.3x locally for clock-drift headroom; CI relaxes to
1.2x via ``BENCH_F32_MIN_SPEEDUP``).

Each test merges its section into ``BENCH_training.json`` (override the
path via the ``BENCH_TRAINING_JSON`` env var) so CI can archive the perf
trajectory PR over PR.

Run:  python -m pytest benchmarks/test_training_throughput.py -s
"""

import os
import time

import numpy as np
import pytest

from conftest import update_bench_json
from repro.core import QPPNet, QPPNetConfig, Trainer, vectorize_corpus
from repro.featurize import Featurizer
from repro.workload import Workbench

N_PLANS = 512
#: fused vs taped: the product of the retired per-group engine's bars
#: (3.0x over taped, then ``BENCH_FUSED_MIN_SPEEDUP`` over it).
REQUIRED_SPEEDUP = 3.0 * float(os.environ.get("BENCH_FUSED_MIN_SPEEDUP", "1.5"))
# Local gate 1.3x / CI 1.2x: the measured ratio on a quiet machine is
# ~1.4-1.5x, but it breathes a few percent with CPU clock drift, so the
# gate sits below the noise band of the signal it protects.
REQUIRED_F32_SPEEDUP = float(os.environ.get("BENCH_F32_MIN_SPEEDUP", "1.3"))
TIMED_EPOCHS = 3


def _update_bench(section: str, values: dict):
    """Merge one section into BENCH_training.json (tests run independently)."""
    return update_bench_json("BENCH_TRAINING_JSON", "BENCH_training.json", section, values)


@pytest.fixture(scope="module")
def workload():
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    corpus = wb.generate(N_PLANS, rng=np.random.default_rng(1))
    featurizer = Featurizer().fit([s.plan for s in corpus])
    vectorized = vectorize_corpus(corpus, featurizer)
    return featurizer, vectorized


def _epoch_time(featurizer, vectorized, engine):
    config = QPPNetConfig(mode="both", engine=engine, seed=0)
    model = QPPNet(featurizer, config)
    trainer = Trainer(model, config)
    # Warm one epoch: schedule/level-plan compilation, buffer growth,
    # pre-grouping and flat-space construction are one-time costs.
    trainer.fit_vectorized(vectorized, epochs=1)
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        history = trainer.fit_vectorized(vectorized, epochs=TIMED_EPOCHS)
        best = min(best, (time.perf_counter() - start) / TIMED_EPOCHS)
    return best, history.final_loss


def test_fused_training_throughput(workload):
    featurizer, vectorized = workload

    taped_s, taped_loss = _epoch_time(featurizer, vectorized, "taped")
    fused_s, fused_loss = _epoch_time(featurizer, vectorized, "fused")
    speedup = taped_s / fused_s
    n_structures = len({p.graph.signature for p in vectorized})

    result = {
        "n_plans": N_PLANS,
        "n_structures": n_structures,
        "taped_epoch_s": round(taped_s, 4),
        "fused_epoch_s": round(fused_s, 4),
        "taped_plans_per_s": round(N_PLANS / taped_s, 1),
        "fused_plans_per_s": round(N_PLANS / fused_s, 1),
        "fused_speedup": round(speedup, 2),
        "required_fused_speedup": REQUIRED_SPEEDUP,
        "taped_final_loss": taped_loss,
        "fused_final_loss": fused_loss,
    }
    out_path = _update_bench("engines", result)

    print(
        f"\n[training-throughput] {N_PLANS} plans, {n_structures} structures, "
        f"mode=both\n"
        f"  taped engine    : {taped_s:.3f}s/epoch  ({N_PLANS / taped_s:8.0f} plans/s)\n"
        f"  fused engine    : {fused_s:.3f}s/epoch  ({N_PLANS / fused_s:8.0f} plans/s)\n"
        f"  fused/taped     : {speedup:.1f}x   (required >= {REQUIRED_SPEEDUP:.2f}x)\n"
        f"  -> {out_path}"
    )

    # Same objective, same batches, same init: the engines must agree on
    # what they are optimizing, not just be fast.
    assert np.isfinite(fused_loss)
    assert fused_loss == pytest.approx(taped_loss, rel=1e-5)
    assert speedup >= REQUIRED_SPEEDUP


def test_float32_training_throughput(workload):
    """Precision tier (ISSUE 5): fused float32 vs the fused float64
    reference — same corpus, same seed, same batches.  The float32 run
    must also *track* the reference loss (identical init rounded once,
    so after three epochs the losses agree to well under a percent)."""
    featurizer, vectorized = workload

    # The f32/f64 ratio sits near the local 1.4x bar and CPU clocks sag
    # monotonically under sustained load, so measure the two tiers
    # *interleaved* (alternating timed blocks, best-of-4 each) — drift
    # then penalizes both equally instead of whichever ran last.
    trainers = {}
    for dtype in ("float64", "float32"):
        config = QPPNetConfig(mode="both", engine="fused", seed=0, dtype=dtype)
        model = QPPNet(featurizer, config)
        trainers[dtype] = Trainer(model, config)
        trainers[dtype].fit_vectorized(vectorized, epochs=1)  # warm
    best = {"float64": float("inf"), "float32": float("inf")}
    loss = {}
    # Longer timed blocks than the engines test: each fit_vectorized call
    # re-pre-groups the corpus (a dtype-independent setup cost), which at
    # 3 epochs dilutes the per-epoch ratio this test is measuring.
    dtype_epochs = 3 * TIMED_EPOCHS
    for _ in range(3):
        for dtype, trainer in trainers.items():
            start = time.perf_counter()
            history = trainer.fit_vectorized(vectorized, epochs=dtype_epochs)
            best[dtype] = min(best[dtype], (time.perf_counter() - start) / dtype_epochs)
            loss[dtype] = history.final_loss
    f64_s, f64_loss = best["float64"], loss["float64"]
    f32_s, f32_loss = best["float32"], loss["float32"]
    speedup = f64_s / f32_s
    loss_gap = abs(f32_loss - f64_loss) / max(1e-12, abs(f64_loss))

    out_path = _update_bench(
        "dtype",
        {
            "n_plans": N_PLANS,
            "engine": "fused",
            "float64_epoch_s": round(f64_s, 4),
            "float32_epoch_s": round(f32_s, 4),
            "float64_plans_per_s": round(N_PLANS / f64_s, 1),
            "float32_plans_per_s": round(N_PLANS / f32_s, 1),
            "speedup": round(speedup, 2),
            "required_speedup": REQUIRED_F32_SPEEDUP,
            "float64_final_loss": f64_loss,
            "float32_final_loss": f32_loss,
            "loss_rel_gap": loss_gap,
        },
    )

    print(
        f"\n[dtype-throughput] {N_PLANS} plans, fused engine\n"
        f"  float64 (reference): {f64_s:.3f}s/epoch  ({N_PLANS / f64_s:8.0f} plans/s)\n"
        f"  float32            : {f32_s:.3f}s/epoch  ({N_PLANS / f32_s:8.0f} plans/s)\n"
        f"  speedup            : {speedup:.2f}x   (required >= {REQUIRED_F32_SPEEDUP:.2f}x)\n"
        f"  loss rel gap       : {loss_gap:.2e}  (required <= 5e-3)\n"
        f"  -> {out_path}"
    )

    assert np.isfinite(f32_loss)
    assert loss_gap <= 5e-3
    assert speedup >= REQUIRED_F32_SPEEDUP
