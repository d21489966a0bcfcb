"""QPP Net training (paper §5).

Implements Eq. 7 — minimize the L2 error of the latency prediction of
*every operator instance* in the training corpus — under the four
optimization modes ablated in Figure 9a:

``naive``
    per-plan processing, and each operator's loss term recomputes its
    entire subtree (no caching, no vectorization);
``batching``
    plan-based batch training (§5.1.1): plans grouped by structure inside
    each random batch and vectorized, but subtrees still recomputed per
    loss term;
``info_sharing``
    subtree caching (§5.1.2): each plan evaluated bottom-up once, but one
    plan at a time;
``both``
    batching + caching — the configuration the paper trains with.

All modes optimize the same objective; they differ only in how much
redundant computation the loss evaluation performs, which is exactly
what Figure 9a measures.

Training engines
----------------
Three execution engines implement the objective (``QPPNetConfig.engine``;
only mode ``both`` honours the setting — the ablation modes always run
taped):

``taped`` (reference)
    every forward arithmetic op records a backward closure on the
    :mod:`repro.nn.tensor` tape and ``loss.backward()`` replays it.  The
    three ablation modes — ``naive``, ``batching``, ``info_sharing`` —
    *always* run taped, because their deliberately redundant computation
    is the quantity Figure 9a measures.
``compiled`` (mode ``both`` only)
    per-group tape-free execution: forward and backward run through each
    structure group's :class:`~repro.core.compile.CompiledSchedule` over
    raw numpy arrays with closed-form per-unit gradients (no tape, no
    per-op closures), level-fused *within* the group.  The per-group
    loss is fused — all per-operator latency outputs are stacked once
    and the Eq. 7 sum of squared errors is one subtraction plus one
    reduction, instead of ``n_nodes`` taped terms chained with
    ``total + term``.
``fused`` (default, mode ``both`` only)
    cross-structure level-fused execution: each batch compiles into one
    type-major :class:`~repro.core.levels.LevelPlan` that runs the
    *entire batch* — all structure groups at once — with one matmul per
    unit type per tree depth, forward and backward.  The batch arrives
    as one ``take`` per unit type from the corpus, the whole-batch loss
    degenerates to a single subtraction and dot product over the output
    matrix's latency column, and the backward seed is written in one
    shot.

All tape-free engines share the surrounding machinery: batches come from
an epoch-level :class:`~repro.core.batching.PreGroupedCorpus` (grouped
and stored type-major once, gathered per batch), gradients accumulate
in place into a :class:`~repro.nn.FlatParameterSpace`, and global-norm
clipping plus the optimizer update run fused over the flat buffers.

All engines compute the same gradients (pinned to <= 1e-9 agreement by
``tests/core/test_compiled_training.py``); ``benchmarks/
test_training_throughput.py`` tracks the epoch-throughput speedups.  One
semantic nuance: the fused optimizer treats parameters of units unused
in a batch as zero-gradient (momentum keeps coasting), where the taped
loop skips them — identical whenever every unit appears in every batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.workload.generator import PlanSample

from .batching import (
    BufferPool,
    CorpusBatch,
    PreGroupedCorpus,
    StructureGroup,
    VectorizedPlan,
    group_by_structure,
    sample_batches,
    vectorize_corpus,
)
from .checkpoint import latest_valid_checkpoint, save_checkpoint
from .compile import CompiledSchedule
from .config import QPPNetConfig
from .model import QPPNet


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    wall_clock_s: list[float] = field(default_factory=list)  # cumulative
    eval_epochs: list[int] = field(default_factory=list)
    eval_values: list[float] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        return self.wall_clock_s[-1] if self.wall_clock_s else 0.0

    @property
    def final_loss(self) -> float:
        return self.train_loss[-1] if self.train_loss else float("nan")


def _singleton(plan: VectorizedPlan, dtype: np.dtype) -> StructureGroup:
    # Cast to the compute dtype here (a no-copy pass-through for the
    # float64 default): per-plan ablation modes bypass the stacking pool
    # that casts for the batched modes, and a float32 model must not
    # silently promote its taped forward back to float64.
    return StructureGroup(
        plan.graph,
        [np.asarray(f, dtype=dtype).reshape(1, -1) for f in plan.features],
        np.asarray(plan.labels, dtype=dtype).reshape(1, -1),
    )


@dataclass
class _GroupForward:
    """One structure group's compiled forward, held until backward."""

    schedule: CompiledSchedule
    tape: object  # opaque activation record for CompiledSchedule.backward
    diff: np.ndarray  # (B, n_nodes) prediction - label
    sse: float


class Trainer:
    """Gradient-descent training of a :class:`QPPNet`."""

    def __init__(self, model: QPPNet, config: Optional[QPPNetConfig] = None) -> None:
        self.model = model
        self.config = config or model.config
        self.optimizer = nn.make_optimizer(
            self.config.optimizer,
            model.parameters(),
            lr=self.config.lr,
            momentum=self.config.momentum,
        )
        # Feature/label stacking buffers, reused batch to batch (safe:
        # each batch's graph is consumed by backward() before the next
        # batch is assembled).  Capped so corpora with very many distinct
        # structures do not pin one buffer per (signature, position).
        # Allocated in the compute dtype: float64 per-plan rows cast on
        # write, so batch matrices enter the engines in-model precision.
        self._stack_pool = BufferPool(max_entries=4096, dtype=self.config.np_dtype)
        # Flat parameter/gradient storage for the compiled engine,
        # created on first compiled fit (rebinds param.data to views).
        self._flat: Optional[nn.FlatParameterSpace] = None

    def _ensure_flat(self) -> nn.FlatParameterSpace:
        if self._flat is None:
            self._flat = nn.FlatParameterSpace(self.model.parameters())
        return self._flat

    @property
    def execution_engine(self) -> str:
        """The engine ``fit`` actually runs: the configured one for mode
        ``both``, ``"taped"`` for the ablation modes (their redundant
        computation is the thing Figure 9a measures)."""
        return self.config.engine if self.config.mode == "both" else "taped"

    @property
    def uses_compiled_engine(self) -> bool:
        """Whether ``fit`` runs a tape-free (compiled or fused) path."""
        return self.execution_engine != "taped"

    # ------------------------------------------------------------------
    # Loss assembly
    # ------------------------------------------------------------------
    def _group_sse_cached(self, group: StructureGroup) -> nn.Tensor:
        """Sum of squared per-operator errors with subtree caching."""
        outputs = self.model.forward_group(group)
        terms = []
        for pos in range(group.graph.n_nodes):
            pred = outputs[pos][:, :1]
            target = nn.Tensor(group.labels[:, pos : pos + 1])
            diff = pred - target
            terms.append((diff * diff).sum())
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    def _group_sse_uncached(self, group: StructureGroup) -> nn.Tensor:
        """Sum of squared errors, recomputing each operator's subtree."""
        terms = []
        for pos in range(group.graph.n_nodes):
            out = self.model.forward_subtree_uncached(group, pos)
            pred = out[:, :1]
            target = nn.Tensor(group.labels[:, pos : pos + 1])
            diff = pred - target
            terms.append((diff * diff).sum())
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    def batch_loss(self, batch: Sequence[VectorizedPlan]) -> nn.Tensor:
        """Eq. 7 over one random batch, honouring the configured mode."""
        mode = self.config.mode
        if mode in ("both", "batching"):
            groups = group_by_structure(batch, pool=self._stack_pool)
        else:  # per-plan processing
            groups = [_singleton(plan, self.config.np_dtype) for plan in batch]
        sse_fn = (
            self._group_sse_cached
            if mode in ("both", "info_sharing")
            else self._group_sse_uncached
        )
        total_ops = sum(g.n_operators for g in groups)
        total = sse_fn(groups[0])
        for group in groups[1:]:
            total = total + sse_fn(group)
        mse = total * (1.0 / max(1, total_ops))
        if self.config.loss == "rmse":
            return F.sqrt(mse + 1e-12)
        return mse

    # ------------------------------------------------------------------
    # Compiled engine (tape-free loss + backward)
    # ------------------------------------------------------------------
    def _compiled_group_forward(self, group: StructureGroup) -> _GroupForward:
        """Schedule forward plus the fused per-group loss ingredients.

        The fused loss stacks every operator's latency output into one
        ``(B, n_nodes)`` matrix, so the Eq. 7 sum of squared errors is a
        single subtraction and a single reduction — no per-operator tape
        terms.
        """
        schedule = self.model.compile_schedule(group.graph)
        outputs, tape = schedule.forward_training(group.features)
        preds = np.stack([out[:, 0] for out in outputs], axis=1)
        diff = preds - group.labels
        flat = diff.ravel()
        return _GroupForward(schedule, tape, diff, float(flat @ flat))

    def compiled_loss_backward(self, groups: Sequence[StructureGroup]) -> float:
        """Eq. 7 over pre-grouped batch ``groups``, compiled end to end.

        Runs the fused forward/loss per group, then seeds each group's
        per-position gradient buffers with the loss gradient of the
        latency column and walks the backward schedule.  Parameter
        gradients accumulate in place into ``param.grad`` (flat-space
        views when the compiled fit loop bound them); returns the loss
        value.  Gradients match the taped :meth:`batch_loss` +
        ``backward()`` to <= 1e-9.
        """
        forwards = [self._compiled_group_forward(g) for g in groups]
        total_ops = max(1, sum(g.n_operators for g in groups))
        mse = sum(f.sse for f in forwards) / total_ops
        if self.config.loss == "rmse":
            loss = float(np.sqrt(mse + 1e-12))
            # d loss / d sse = d sqrt(mse+eps)/d mse * 1/total_ops
            coeff = 0.5 / loss / total_ops
        else:
            loss = mse
            coeff = 1.0 / total_ops
        for fwd in forwards:
            seeds = fwd.schedule.alloc_output_grads(fwd.diff.shape[0])
            latency_grad = (2.0 * coeff) * fwd.diff
            for pos in range(fwd.schedule.n_nodes):
                seeds[pos][:, 0] = latency_grad[:, pos]
            fwd.schedule.backward(fwd.tape, seeds)
        return loss

    def _compiled_train_step(self, batch: CorpusBatch) -> float:
        """One batch: zero flat grads, fused loss+backward, clip, step."""
        flat = self._ensure_flat()
        flat.zero_grad()
        loss = self.compiled_loss_backward(batch.groups())
        if self.config.grad_clip:
            flat.clip_grad_norm_(self.config.grad_clip)
        self.optimizer.step_flat(flat)
        return loss

    # ------------------------------------------------------------------
    # Level-fused engine (whole batch, cross-structure)
    # ------------------------------------------------------------------
    def fused_loss_backward(
        self, groups: Union[CorpusBatch, Sequence[StructureGroup]]
    ) -> float:
        """Eq. 7 over one batch, level-fused end to end.

        ``groups`` is a :class:`~repro.core.batching.CorpusBatch` (what
        the fit loop draws) or per-structure groups such as
        :func:`~repro.core.batching.group_by_structure` returns.  One
        :class:`~repro.core.levels.LevelPlan` forward runs every structure
        of the batch at once (one matmul per unit type per tree depth);
        the features arrive as one matrix per unit type and the labels
        in the plan's row order, so the whole-batch loss is a single
        subtraction plus one dot product, and the backward seed is one
        vectorized write into the latency column.  Parameter gradients
        accumulate in place (flat-space views when the fused fit loop
        bound them); returns the loss value.  Gradients match the taped
        :meth:`batch_loss` + ``backward()`` to <= 1e-9.
        """
        batch = (
            groups
            if isinstance(groups, CorpusBatch)
            else CorpusBatch.of_groups(groups, self.config.np_dtype)
        )
        plan = self.model.compile_level_plan(batch.graphs, batch.counts)
        features, labels = batch.take(plan)
        run = plan.forward_training(features)
        diff = run.out[:, 0] - labels
        total_ops = max(1, plan.n_rows)
        mse = float(diff @ diff) / total_ops
        if self.config.loss == "rmse":
            loss = float(np.sqrt(mse + 1e-12))
            # d loss / d sse = d sqrt(mse+eps)/d mse * 1/total_ops
            coeff = 0.5 / loss / total_ops
        else:
            loss = mse
            coeff = 1.0 / total_ops
        grads = plan.alloc_output_grads()
        np.multiply(diff, 2.0 * coeff, out=grads[:, 0])
        plan.backward(run, grads)
        return loss

    def _fused_train_step(self, batch: CorpusBatch) -> float:
        """One batch: zero flat grads, level-fused loss+backward, clip, step."""
        flat = self._ensure_flat()
        flat.zero_grad()
        loss = self.fused_loss_backward(batch)
        if self.config.grad_clip:
            flat.clip_grad_norm_(self.config.grad_clip)
        self.optimizer.step_flat(flat)
        return loss

    # ------------------------------------------------------------------
    # Fit loop
    # ------------------------------------------------------------------
    def fit(
        self,
        samples: Sequence[PlanSample],
        epochs: Optional[int] = None,
        eval_fn: Optional[Callable[[QPPNet], float]] = None,
        eval_every: int = 0,
        verbose: bool = False,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        resume: bool = True,
        epoch_hook: Optional[Callable[[int], None]] = None,
    ) -> TrainingHistory:
        """Train on analyzed plans; returns the per-epoch history.

        ``eval_fn(model)`` (e.g. test-set MAE) is recorded every
        ``eval_every`` epochs — used by the Figure 9b/9c convergence
        experiment.

        With ``checkpoint_dir`` set, an atomic digest-verified
        checkpoint (:mod:`repro.core.checkpoint`) of the complete
        training state — parameters, optimizer state, rng state, epoch
        counter, history — is written every ``checkpoint_every`` epochs
        (and at the final epoch); when ``resume`` is true and the
        directory holds a valid checkpoint, the fit restores it and
        continues from the next epoch, reproducing the uninterrupted
        run's loss trajectory exactly (torn or corrupt checkpoint files
        are skipped in favour of the newest valid one).  ``epoch_hook``
        fires after each epoch's bookkeeping (and after its checkpoint,
        so a crash inside the hook is resumable) — the fault-injection
        seam used by :mod:`repro.testing.faults`.

        The tape-free engines build their epoch-level
        :class:`PreGroupedCorpus` straight from the samples via the
        compiled featurization tier
        (:meth:`PreGroupedCorpus.from_samples`) — one vectorized program
        run per (structure, logical type) — skipping the per-node
        ``vectorize_corpus`` walk entirely; only the taped reference
        loop still vectorizes plan by plan.
        """
        if self.uses_compiled_engine:
            pre_grouped = PreGroupedCorpus.from_samples(
                samples, self.model.featurizer, dtype=self.config.np_dtype
            )
            corpus = None
        else:
            corpus = vectorize_corpus(samples, self.model.featurizer)
            pre_grouped = None
        return self._run_fit(
            corpus, pre_grouped, epochs, eval_fn, eval_every, verbose,
            checkpoint_dir, checkpoint_every, resume, epoch_hook,
        )

    def fit_vectorized(
        self,
        corpus: Sequence[VectorizedPlan],
        epochs: Optional[int] = None,
        eval_fn: Optional[Callable[[QPPNet], float]] = None,
        eval_every: int = 0,
        verbose: bool = False,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        resume: bool = True,
        epoch_hook: Optional[Callable[[int], None]] = None,
    ) -> TrainingHistory:
        """:meth:`fit` over an already-vectorized corpus.

        Lets callers (benchmarks, repeated fits over the same corpus)
        amortize featurization, and is the entry point that picks the
        training engine: mode ``both`` runs the configured tape-free
        engine (``fused`` whole-batch level plans by default,
        ``compiled`` per-group schedules) over an epoch-level
        :class:`PreGroupedCorpus`; everything else runs the taped
        reference loop.  Checkpoint/resume parameters as in :meth:`fit`.
        """
        pre_grouped = (
            PreGroupedCorpus(corpus, dtype=self.config.np_dtype)
            if self.uses_compiled_engine
            else None
        )
        return self._run_fit(
            corpus, pre_grouped, epochs, eval_fn, eval_every, verbose,
            checkpoint_dir, checkpoint_every, resume, epoch_hook,
        )

    def _run_fit(
        self,
        corpus: Optional[Sequence[VectorizedPlan]],
        pre_grouped: Optional[PreGroupedCorpus],
        epochs: Optional[int],
        eval_fn: Optional[Callable[[QPPNet], float]],
        eval_every: int,
        verbose: bool,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        resume: bool = True,
        epoch_hook: Optional[Callable[[int], None]] = None,
    ) -> TrainingHistory:
        """Shared epoch loop behind :meth:`fit` / :meth:`fit_vectorized`.

        Exactly one of ``corpus`` (taped reference loop) / ``pre_grouped``
        (tape-free engines) drives the batches; both entry points resolve
        which before calling in.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        rng = np.random.default_rng(self.config.seed + 7)
        scheduler = None
        if self.config.lr_decay_every and hasattr(self.optimizer, "lr"):
            scheduler = nn.StepLR(
                self.optimizer, self.config.lr_decay_every, self.config.lr_decay_gamma
            )
        tape_free = pre_grouped is not None
        fused = tape_free and self.execution_engine == "fused"
        step_fn = self._fused_train_step if fused else self._compiled_train_step
        history = TrainingHistory()
        start_epoch = 0
        wall_offset = 0.0
        if checkpoint_dir is not None and resume:
            loaded = latest_valid_checkpoint(checkpoint_dir)
            if loaded is not None:
                self.model.load_state_dict(loaded.model_state)
                self.optimizer.load_state_dict(loaded.optimizer_state)
                # The epoch loop's rng state at the checkpoint boundary:
                # restoring it replays the exact batch sequence the
                # uninterrupted run would have drawn.
                rng.bit_generator.state = loaded.rng_state
                for key, values in loaded.history.items():
                    getattr(history, key).extend(values)
                start_epoch = loaded.epoch
                wall_offset = loaded.wall_clock_s
                if scheduler is not None:
                    # lr itself came back with the optimizer state; the
                    # scheduler only needs its epoch count to keep the
                    # decay cadence aligned.
                    scheduler._epoch = start_epoch
                if verbose:
                    print(f"resumed from {loaded.path} at epoch {start_epoch}")
        start = time.perf_counter() - wall_offset
        for epoch in range(start_epoch + 1, epochs + 1):
            epoch_losses = []
            if tape_free:
                for batch in pre_grouped.iter_batches(
                    self.config.batch_size, rng, pool=self._stack_pool
                ):
                    epoch_losses.append(step_fn(batch))
            else:
                for batch in sample_batches(corpus, self.config.batch_size, rng):
                    loss = self.batch_loss(batch)
                    self.optimizer.zero_grad()
                    loss.backward()
                    if self.config.grad_clip:
                        self.optimizer.clip_grad_norm(self.config.grad_clip)
                    self.optimizer.step()
                    epoch_losses.append(loss.item())
            if scheduler is not None:
                scheduler.step()
            history.epochs.append(epoch)
            history.train_loss.append(float(np.mean(epoch_losses)))
            history.wall_clock_s.append(time.perf_counter() - start)
            if eval_fn is not None and eval_every and epoch % eval_every == 0:
                history.eval_epochs.append(epoch)
                history.eval_values.append(float(eval_fn(self.model)))
            if verbose:
                print(
                    f"epoch {epoch:4d}  loss={history.train_loss[-1]:.5f}  "
                    f"t={history.wall_clock_s[-1]:.1f}s"
                )
            if checkpoint_dir is not None and checkpoint_every and (
                epoch % checkpoint_every == 0 or epoch == epochs
            ):
                self._save_checkpoint(checkpoint_dir, epoch, rng, history)
            if epoch_hook is not None:
                epoch_hook(epoch)
        return history

    def _save_checkpoint(
        self,
        checkpoint_dir: str,
        epoch: int,
        rng: np.random.Generator,
        history: TrainingHistory,
    ) -> None:
        """Snapshot the complete fit state after ``epoch`` completed."""
        save_checkpoint(
            checkpoint_dir,
            epoch=epoch,
            model_state=self.model.state_dict(),
            optimizer_state=self.optimizer.state_dict(),
            optimizer_class=type(self.optimizer).__name__,
            rng_state=rng.bit_generator.state,
            history={
                "epochs": history.epochs,
                "train_loss": history.train_loss,
                "wall_clock_s": history.wall_clock_s,
                "eval_epochs": history.eval_epochs,
                "eval_values": history.eval_values,
            },
            wall_clock_s=history.wall_clock_s[-1] if history.wall_clock_s else 0.0,
        )


def train_qppnet(
    samples: Sequence[PlanSample],
    featurizer=None,
    config: Optional[QPPNetConfig] = None,
    **fit_kwargs,
) -> tuple[QPPNet, TrainingHistory]:
    """One-call convenience: fit featurizer (if needed), build, train."""
    from repro.featurize.featurizer import Featurizer

    config = config or QPPNetConfig()
    if featurizer is None:
        featurizer = Featurizer().fit([s.plan for s in samples])
    model = QPPNet(featurizer, config)
    trainer = Trainer(model, config)
    history = trainer.fit(samples, **fit_kwargs)
    return model, history


def fine_tune(
    model: QPPNet,
    samples: Sequence[PlanSample],
    *,
    epochs: int,
    lr: Optional[float] = None,
    batch_size: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
    resume: bool = True,
    epoch_hook: Optional[Callable[[int], None]] = None,
) -> tuple[QPPNet, TrainingHistory]:
    """Continue training a *copy* of ``model`` on new samples.

    The incremental-refresh primitive of the live model lifecycle: the
    candidate starts from a bitwise copy of the live parameters (same
    featurizer — the schema is frozen at deployment) and trains under
    its own fresh optimizer, so the serving model is never touched and
    a rejected candidate costs nothing.

    With ``checkpoint_dir`` the fit is durable through the standard
    :mod:`repro.core.checkpoint` path: a crash mid-fine-tune (including
    an injected :class:`~repro.testing.faults.SimulatedCrash`) resumes
    bitwise by calling ``fine_tune`` again with the same directory and
    the same samples — the checkpoint restores parameters, optimizer
    and rng state, so the warm-start copy below is immediately
    overwritten by the restored state.  Resumability therefore requires
    the caller to re-present the *same sample sequence*; the lifecycle
    manager guarantees this by snapshotting its training set from the
    outcome journal by sequence number.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    config = replace(
        model.config,
        epochs=epochs,
        lr=model.config.lr if lr is None else lr,
        batch_size=model.config.batch_size if batch_size is None else batch_size,
    )
    candidate = QPPNet(model.featurizer, config)
    candidate.load_state_dict(model.state_dict())
    trainer = Trainer(candidate, config)
    history = trainer.fit(
        samples,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
        epoch_hook=epoch_hook,
    )
    return candidate, history
