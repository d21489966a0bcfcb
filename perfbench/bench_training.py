"""``train_fit``: ``Trainer.fit`` end to end on 2048 TPC-H plans.

Default ``QPPNetConfig`` — fused engine, float64, batch 256, so 8 steps
per epoch.  Each measured fit starts from a freshly initialised model
(same seed, so every fit does identical work) and includes the epoch
pre-grouping, exactly what a caller of ``fit`` waits for.  The serving
layers do no work here.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import numpy as np

from repro.core import (
    LevelPlan,
    PreGroupedCorpus,
    QPPNet,
    QPPNetConfig,
    Trainer,
)
from repro.core.batching import group_by_structure, vectorize_corpus
from repro.featurize import FeatureProgram, Featurizer
from repro.nn import SGD, FlatParameterSpace
from repro.workload import Workbench

import metrics
from outcome import Outcome, peak_rss_mb
from spans import Tracer

N_PLANS = 2048
#: Epochs per measured fit.
FIT_EPOCHS = 10
#: Untraced runs interleave this many blocks of fits with set-ups, each
#: slot of set-ups repeating for at least SETUP_SLOT_S; ``setup_s`` is the
#: median over all of them.
FIT_BLOCKS = 4
SETUP_SLOT_S = 0.5
#: ``latency_p50_ms`` is the good-side quartile (``metrics.good_quartile``)
#: of the medians of runs of this many consecutive epochs.
LATENCY_WINDOW_EPOCHS = 20
#: Fused loss must equal the taped reference to this (relative).
REL_TOL = 1e-9


def generate_corpus(seed: int):
    bench = Workbench("tpch", scale_factor=0.2, seed=0)
    return bench.generate(N_PLANS, rng=np.random.default_rng([seed, 0]))


def set_up(samples) -> Featurizer:
    """Fit the featurizer, then one warm-up epoch on a throwaway model so
    feature programs and layouts are compiled before timing."""
    featurizer = Featurizer().fit([s.plan for s in samples])
    Trainer(QPPNet(featurizer, QPPNetConfig())).fit(samples, epochs=1)
    return featurizer


class Fit:
    """One timed ``Trainer.fit`` with per-epoch end stamps."""

    def __init__(self, featurizer: Featurizer, samples) -> None:
        trainer = Trainer(QPPNet(featurizer, QPPNetConfig()))
        self.epoch_ends: list[float] = []
        self.start = time.monotonic()
        self.history = trainer.fit(
            samples,
            epochs=FIT_EPOCHS,
            epoch_hook=lambda epoch: self.epoch_ends.append(time.monotonic()),
        )
        self.end = time.monotonic()
        plans = trainer.model.level_plans
        self.level_plan_hits, self.level_plan_misses = plans.hits, plans.misses
        self.steps = FIT_EPOCHS * -(-len(samples) // trainer.config.batch_size)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def epoch_ms(self) -> list[float]:
        wall = self.history.wall_clock_s
        return [(b - a) * 1e3 for a, b in zip([0.0] + wall[:-1], wall)]

    def epoch_bounds(self) -> list[tuple[float, float]]:
        """Epoch intervals: each ends at its hook stamp and lasts as long as
        ``TrainingHistory.wall_clock_s`` says."""
        return [(end - ms / 1e3, end) for end, ms in zip(self.epoch_ends, self.epoch_ms)]


def fits_for(featurizer: Featurizer, samples, seconds: float) -> list[Fit]:
    fits: list[Fit] = []
    start = time.monotonic()
    while not fits or time.monotonic() - start < seconds:
        fits.append(Fit(featurizer, samples))
    return fits


def install_training_spans(tracer: Tracer) -> None:
    tracer.wrap(Trainer, "fit", "trainer.fit")
    tracer.wrap(PreGroupedCorpus, "from_samples", "batching.pregroup")
    tracer.wrap_iterator(PreGroupedCorpus, "iter_batches", "batching.gather")
    tracer.wrap(FeatureProgram, "run", "featurize.program", lambda a, k: len(a[1]))
    tracer.wrap(Trainer, "fused_loss_backward", "trainer.loss")
    tracer.wrap(QPPNet, "compile_level_plan", "levels.compile")
    tracer.wrap(LevelPlan, "forward_training", "levels.forward_train")
    tracer.wrap(LevelPlan, "backward", "levels.backward")
    tracer.wrap(FlatParameterSpace, "clip_grad_norm_", "nn.clip")
    tracer.wrap(SGD, "step_flat", "nn.optim_step")


def training_layers(tracer: Tracer, fits: list[Fit]) -> dict:
    """Per-layer metrics of the traced fits, per step / per epoch."""
    names: dict[str, list] = {}
    for span in tracer.spans:
        names.setdefault(span.name, []).append(span)
    children: dict = {}
    for span in tracer.spans:
        children.setdefault(span.parent, []).append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in names.get(name, ()))

    steps = sum(f.steps for f in fits)
    epochs = sum(len(f.epoch_ms) for f in fits)
    plans = sum(N_PLANS for _ in fits)
    loss_self = sum(
        metrics.self_time(s.start, s.end, [(c.start, c.end) for c in children.get(s.id, ())])
        for s in names["trainer.loss"]
    )
    # Epoch self time: each epoch minus the fit-level spans inside it.
    epoch_self = 0.0
    epoch_total = 0.0
    fit_spans = sorted(names["trainer.fit"], key=lambda s: s.start)
    for fit, span in zip(fits, fit_spans):
        inside = [(c.start, c.end) for c in children.get(span.id, ()) if c.name != "batching.pregroup"]
        for lo, hi in fit.epoch_bounds():
            epoch_self += metrics.self_time(lo, hi, inside)
            epoch_total += hi - lo
    hits = sum(f.level_plan_hits for f in fits)
    misses = sum(f.level_plan_misses for f in fits)
    pregroup = total("batching.pregroup")
    e2e = total("trainer.fit")
    return {
        "featurize.program_us_per_plan": total("featurize.program") * 1e6 / plans,
        "levels.compile_ms_per_batch": total("levels.compile") * 1e3 / steps,
        "levels.plan_cache_hit_ratio": hits / (hits + misses),
        "levels.plans_compiled": float(misses),
        "batching.pregroup_ms": pregroup * 1e3 / len(fits),
        "batching.gather_ms_per_step": total("batching.gather") * 1e3 / steps,
        "levels.forward_train_ms_per_step": total("levels.forward_train") * 1e3 / steps,
        "levels.backward_ms_per_step": total("levels.backward") * 1e3 / steps,
        "trainer.loss_ms_per_step": loss_self * 1e3 / steps,
        "nn.clip_ms_per_step": total("nn.clip") * 1e3 / steps,
        "nn.optim_step_ms_per_step": total("nn.optim_step") * 1e3 / steps,
        "trainer.epoch_self_ms": epoch_self * 1e3 / epochs,
        "trace.coverage": (pregroup + epoch_total) / e2e,
    }


def fused_equals_taped(featurizer: Featurizer, samples) -> float:
    """Relative gap between the fused loss and the taped ``batch_loss`` on
    the first batch of the corpus, from one fresh initialisation."""
    config = QPPNetConfig()
    batch = vectorize_corpus(samples[: config.batch_size], featurizer)
    fused = Trainer(QPPNet(featurizer, config)).fused_loss_backward(group_by_structure(batch))
    taped_config = config.with_(engine="taped")
    taped = Trainer(QPPNet(featurizer, taped_config), taped_config).batch_loss(batch).item()
    return abs(fused - taped) / max(1.0, abs(taped))


def run(seed: int, seconds: float, trace: bool, scratch: Path, out_dir: Path) -> Outcome:
    out = Outcome()
    t = time.monotonic()
    samples = generate_corpus(seed)
    out.report["plan_generation_s"] = time.monotonic() - t
    out.report["corpus"] = {
        "plans": len(samples),
        "structures": len({s.plan.structure_signature() for s in samples}),
    }
    # The corpus is the benchmark's input, resident for the whole run:
    # keep it out of garbage collections (as bench_serving does).
    gc.collect()
    gc.freeze()
    setup_times: list[float] = []

    def timed_set_up() -> Featurizer:
        gc.collect()
        start = time.monotonic()
        featurizer = set_up(samples)
        setup_times.append(time.monotonic() - start)
        return featurizer

    featurizer = timed_set_up()
    window = seconds / 2 if trace else seconds
    fits: list[Fit] = []
    # Untraced: further set-ups spaced through the fits, so the median of
    # ``setup_s`` samples more than one moment of a noisy host.
    blocks = 1 if trace else FIT_BLOCKS
    for _ in range(blocks):
        fits += fits_for(featurizer, samples, window / blocks)
        slot = time.monotonic()
        while not trace and (time.monotonic() - slot < SETUP_SLOT_S):
            timed_set_up()
    out.report["setup_s_each"] = setup_times
    if trace:
        tracer = Tracer()
        with tracer:
            install_training_spans(tracer)
            traced = fits_for(featurizer, samples, window)
        tracer.dump(out_dir / f"spans-train_fit-seed{seed}.jsonl")
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    all_fits = fits + (traced if trace else [])

    out.attempted = sum(f.steps for f in all_fits)
    losses = [loss for f in all_fits for loss in f.history.train_loss]
    out.check("fit_losses_finite", bool(np.all(np.isfinite(losses))))
    gap = fused_equals_taped(featurizer, samples)
    out.check("fused_loss_matches_taped", gap <= REL_TOL, {"rel_gap": gap})

    epoch_ms = [ms for f in fits for ms in f.epoch_ms]
    plans_per_s = [N_PLANS * FIT_EPOCHS / f.wall_s for f in fits]
    out.report["fits"] = len(fits)
    out.report["epochs"] = {"p50": metrics.percentile(epoch_ms, "50"), "tail": metrics.tail(epoch_ms, "90")}
    out.report["train_plans_per_s_each"] = plans_per_s
    if not trace:
        out.metrics["setup_s"] = float(np.median(setup_times))
        per_window = metrics.window_percentiles(epoch_ms, LATENCY_WINDOW_EPOCHS, "50")
        out.report["epoch_ms_p50_windows"] = {"window": LATENCY_WINDOW_EPOCHS, "values": per_window}
        out.metrics["latency_p50_ms"] = metrics.good_quartile(per_window, "lower")
        out.report["throughput_per_s"] = metrics.good_quartile(plans_per_s, "higher")
        return out

    layers = training_layers(tracer, traced)
    layers["trace.overhead_frac"] = (
        np.median([f.wall_s for f in traced]) / np.median([f.wall_s for f in fits]) - 1.0
    )
    out.metrics.update(layers)
    out.check("trace_coverage_within_10pct", abs(layers["trace.coverage"] - 1.0) <= 0.10,
              layers["trace.coverage"])
    return out
