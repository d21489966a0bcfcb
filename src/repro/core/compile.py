"""Compile-once plan execution (§5.1 turned into an explicit artifact).

The paper's systems contribution is that plans sharing a tree structure
can be served by one vectorized forward pass.  Deriving *how* to run that
pass — the postorder unit schedule, which unit serves each position, and
where each child's output lands inside each parent's input vector — is
pure bookkeeping that depends only on the :class:`~repro.core.batching.PlanGraph`,
not on the batch.  A :class:`CompiledSchedule` performs that derivation
exactly once per structure signature and is then reused for every batch
of that structure, by both training and inference.

Two execution paths share this machinery — one reference, one fast:

1. **Taped** (reference) — :meth:`CompiledSchedule.run_training`
   executes the schedule position by position with taped
   :class:`~repro.nn.Tensor` ops (differentiable autodiff; used by
   :meth:`repro.core.model.QPPNet.forward_group`, the trainer's
   ``taped`` engine, and the Figure 9a ablation modes, whose
   deliberately redundant computation must stay observable).  Every
   fast path is pinned to it at <= 1e-9 in float64.
2. **Type-major level-fused** — :class:`~repro.core.levels.LevelPlan`:
   a batch of structures compiled with numpy into flat index arrays and
   run as one matmul per unit type per tree depth, forward and
   backward, with closed-form per-unit gradients.  The trainer's
   ``fused`` engine (the default) and
   :meth:`repro.serving.InferenceSession.predict_batch` run whole
   mixed-structure batches through it.  The tape-free methods of a
   schedule — :meth:`CompiledSchedule.run_inference` (single-plan
   serving and :meth:`~repro.core.model.QPPNet.predict_operators`) and
   :meth:`CompiledSchedule.forward_training` /
   :meth:`CompiledSchedule.backward` (the per-group
   ``engine="compiled"`` trainer) — are the same executor over a
   one-structure plan, memoized per batch size.

:class:`ScheduleCache` is the LRU signature cache in front of
compilation; in template workloads the handful of distinct structures
means steady-state serving never re-derives a schedule.

Precision tiers
---------------
Orthogonal to the execution paths, every engine runs at one of two
*compute* precisions, fixed by ``QPPNetConfig.dtype``:

* ``"float64"`` (default) — the numerical reference.  The <= 1e-9
  tape-pinning guarantees above are float64 statements, and a float64
  model is what the float32 tier is property-tested against.
* ``"float32"`` — the recommended production precision.  The schedule
  and level-plan machinery is dtype-transparent: assembly buffers,
  stacked matmuls, the fused Eq. 7 loss, gradient scatters and the flat
  optimizer state all adopt the units' dtype, so a float32 model runs
  the whole train/serve hot path with no float64 temporaries and no
  per-batch casts (features are cast once — at corpus pre-grouping for
  training, by the feature programs themselves for serving).  Expect
  the measured speedups in ``BENCH_training.json``/``BENCH_serving.json``
  (``dtype`` sections); agreement with the float64 reference is
  <= 1e-4 relative on predictions.

Pick float64 when bit-level reproducibility or gradient debugging
matters; pick float32 for throughput-sensitive training and serving.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from repro import nn
from repro.plans.operators import LogicalType

from .batching import PlanGraph
from .levels import GraphLevels, LevelPlan, LevelRun

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .unit import NeuralUnit


@dataclass(frozen=True)
class ScheduleStep:
    """One unit evaluation in postorder, with its input layout resolved.

    The unit's input vector is ``F(op) ⌢ child outputs ⌢ zero padding``
    (Eq. 6); ``feature_slice`` / ``child_slices`` / ``pad_slice`` are the
    column ranges of those segments inside the assembled ``(B,
    in_features)`` matrix.
    """

    pos: int
    unit: "NeuralUnit"
    children: tuple[int, ...]
    feature_slice: slice
    child_slices: tuple[slice, ...]
    pad_slice: slice
    in_features: int

    @property
    def needs_assembly(self) -> bool:
        """False when the unit input is the feature matrix unchanged."""
        return bool(self.child_slices) or self.pad_slice.start < self.pad_slice.stop


class CompiledSchedule:
    """Reusable execution plan for one structure-equivalence class."""

    def __init__(self, graph: PlanGraph, units: Mapping[LogicalType, "NeuralUnit"]) -> None:
        self.graph = graph
        self.signature = graph.signature
        steps: list[ScheduleStep] = []
        for pos in graph.postorder:
            unit = units[graph.types[pos]]
            children = graph.children[pos]
            width = unit.data_size + 1
            feature_slice = slice(0, unit.feature_size)
            child_slices = tuple(
                slice(unit.feature_size + i * width, unit.feature_size + (i + 1) * width)
                for i in range(len(children))
            )
            pad_slice = slice(unit.feature_size + len(children) * width, unit.in_features)
            steps.append(
                ScheduleStep(
                    pos=pos,
                    unit=unit,
                    children=children,
                    feature_slice=feature_slice,
                    child_slices=child_slices,
                    pad_slice=pad_slice,
                    in_features=unit.in_features,
                )
            )
        self.steps: tuple[ScheduleStep, ...] = tuple(steps)
        # Tape-free execution (training AND inference) runs through a
        # single-graph level plan per batch size: every (unit type,
        # depth) of this structure is one fused step.  The taped
        # run_training keeps the per-step path (autodiff needs
        # per-position tensors anyway).
        self._units = units
        self._levels = (GraphLevels(graph),)
        self._plans: OrderedDict[int, LevelPlan] = OrderedDict()
        self._grad_flat: Optional[np.ndarray] = None

    #: LRU bound on memoized per-batch-size level plans.
    MAX_CACHED_PLANS = 16

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    def level_plan(self, batch: int) -> LevelPlan:
        """The (memoized) single-graph level plan for ``batch`` plans."""
        plan = self._plans.get(batch)
        if plan is None:
            plan = self._plans[batch] = LevelPlan(
                (self.graph,), (batch,), self._units, self._levels
            )
            while len(self._plans) > self.MAX_CACHED_PLANS:
                self._plans.popitem(last=False)
        else:
            self._plans.move_to_end(batch)
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_training(self, features: Sequence[np.ndarray]) -> dict[int, nn.Tensor]:
        """Differentiable bottom-up pass: ``{position -> (B, d+1) Tensor}``.

        Taped exactly like the pre-compilation ``forward_group`` (input
        assembly via differentiable concat), so gradients and numerics
        are unchanged; the schedule only removes per-call unit lookup and
        order re-derivation.
        """
        outputs: dict[int, nn.Tensor] = {}
        for step in self.steps:
            unit = step.unit
            feats = nn.Tensor(features[step.pos])
            children = [outputs[child] for child in step.children]
            outputs[step.pos] = unit(unit.assemble_input(feats, children))
        return outputs

    def _run(self, features: Sequence[np.ndarray], train: bool) -> LevelRun:
        plan = self.level_plan(features[0].shape[0])
        stacked = plan.stack_positions((features,))
        if train:
            return plan.forward_training(stacked)
        return plan.forward_inference(stacked)

    def run_inference(self, features: Sequence[np.ndarray]) -> dict[int, np.ndarray]:
        """Tape-free bottom-up pass: ``{position -> (B, d+1) array}``.

        Executes level-fused within the structure (one stacked
        ``forward_numpy`` per unit type per depth); the returned values
        are row-slice views of the run's output matrix.
        """
        run = self._run(features, train=False)
        return {
            pos: run.out[run.plan.node_rows(0, pos)] for pos in range(self.n_nodes)
        }

    # ------------------------------------------------------------------
    # Compiled training (tape-free backward)
    # ------------------------------------------------------------------
    def forward_training(
        self, features: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], LevelRun]:
        """Raw-numpy bottom-up pass caching activations for :meth:`backward`.

        Returns ``(outputs, tape)``: ``outputs[p]`` is the ``(B, d+1)``
        unit output per position (a row-slice view of the run's output
        matrix), ``tape`` the :class:`LevelRun` that :meth:`backward`
        consumes — valid for exactly one train step, the trainer's
        forward→backward cadence.
        """
        run = self._run(features, train=True)
        outputs = [run.out[run.plan.node_rows(0, pos)] for pos in range(self.n_nodes)]
        return outputs, run

    def alloc_output_grads(self, batch: int) -> list[np.ndarray]:
        """Zeroed per-position ``(B, d+1)`` gradient seed buffers.

        The returned arrays are row-slice views of one global gradient
        buffer shared with :meth:`backward`.  The caller writes the loss
        gradient into the latency column (``[:, 0]``) of each view and
        hands the list to :meth:`backward`, which adds the parent-routed
        contributions to the data-vector columns on its way down.
        """
        plan = self.level_plan(batch)
        self._grad_flat = plan.alloc_output_grads()
        return [self._grad_flat[plan.node_rows(0, pos)] for pos in range(self.n_nodes)]

    def backward(self, tape: LevelRun, output_grads: Sequence[np.ndarray]) -> None:
        """Reverse level-order backward with pre-resolved gradient routing.

        ``output_grads`` must be the views handed out by
        :meth:`alloc_output_grads` (they alias the global gradient buffer
        the level plan walks; enforced).  Parents run before children;
        each fused step accumulates its unit's parameter gradients once
        and routes the child-slice segments of its input gradient into
        the children's rows.  Gradients w.r.t. the feature columns are
        discarded (plan features are constants, not trainable).
        """
        flat = self._grad_flat
        if (
            flat is None
            or flat.shape[0] != tape.plan.n_rows
            or not len(output_grads)
            or not np.shares_memory(output_grads[0], flat)
        ):
            raise ValueError(
                "output_grads must be the seed views handed out by "
                "alloc_output_grads for this batch size"
            )
        tape.plan.backward(tape, flat)


class ScheduleCache:
    """LRU cache of :class:`CompiledSchedule` keyed by structure signature."""

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, CompiledSchedule] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, graph: PlanGraph, units: Mapping[LogicalType, "NeuralUnit"]
    ) -> CompiledSchedule:
        """The schedule for ``graph``'s signature, compiling on first use."""
        schedule = self._entries.get(graph.signature)
        if schedule is not None:
            self._entries.move_to_end(graph.signature)
            self.hits += 1
            return schedule
        self.misses += 1
        schedule = CompiledSchedule(graph, units)
        self._entries[graph.signature] = schedule
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return schedule

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
