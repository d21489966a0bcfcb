"""The taped reference executor (§5.1 turned into an explicit artifact).

The paper's systems contribution is that plans sharing a tree structure
can be served by one vectorized forward pass.  Deriving *how* to run that
pass — the postorder unit schedule, which unit serves each position, and
which children feed each parent's input vector — is pure bookkeeping
that depends only on the :class:`~repro.core.batching.PlanGraph`, not on
the batch.  A :class:`CompiledSchedule` performs that derivation once
per structure signature.

Execution has one reference path and one fast path:

1. **Taped** (reference) — :meth:`CompiledSchedule.run_training`
   executes the schedule position by position with taped
   :class:`~repro.nn.Tensor` ops (differentiable autodiff).  It backs
   :meth:`repro.core.model.QPPNet.forward_group` (the trainer's
   ``taped`` engine and the Figure 9a ablation modes, whose
   deliberately redundant computation must stay observable) and, under
   :func:`repro.nn.inference_mode`, the per-plan
   :meth:`~repro.core.model.QPPNet.predict_operators`.  Every fast path
   is pinned to it at <= 1e-9 in float64.
2. **Type-major level-fused** (fast) —
   :class:`~repro.core.levels.LevelPlan`: a batch of structures
   compiled with numpy into flat index arrays and run as one matmul per
   unit type per tree depth, forward and backward, with closed-form
   per-unit gradients.  The trainer's ``fused`` engine (the default)
   and :meth:`repro.serving.InferenceSession.predict_batch` run whole
   mixed-structure batches through it.  It is the only tape-free
   executor.

:class:`ScheduleCache` is the LRU signature cache in front of
compilation.  It serves the taped reference only; the fast path keeps
its own per-structure cache (:class:`~repro.core.levels.LevelPlanCache`).

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
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro import nn
from repro.plans.operators import LogicalType

from .batching import PlanGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .unit import NeuralUnit


@dataclass(frozen=True)
class ScheduleStep:
    """One unit evaluation in postorder: its position, unit and children."""

    pos: int
    unit: "NeuralUnit"
    children: tuple[int, ...]


class CompiledSchedule:
    """Taped execution plan for one structure-equivalence class."""

    def __init__(self, graph: PlanGraph, units: Mapping[LogicalType, "NeuralUnit"]) -> None:
        self.signature = graph.signature
        self.n_nodes = graph.n_nodes
        self.steps: tuple[ScheduleStep, ...] = tuple(
            ScheduleStep(pos, units[graph.types[pos]], graph.children[pos])
            for pos in graph.postorder
        )

    def run_training(self, features: Sequence[np.ndarray]) -> dict[int, nn.Tensor]:
        """Differentiable bottom-up pass: ``{position -> (B, d+1) Tensor}``.

        Taped exactly like the pre-compilation ``forward_group`` (input
        assembly via differentiable concat), so gradients and numerics
        are unchanged; the schedule only removes per-call unit lookup and
        order re-derivation.  Under :func:`repro.nn.inference_mode` the
        same pass records no tape.
        """
        outputs: dict[int, nn.Tensor] = {}
        for step in self.steps:
            unit = step.unit
            feats = nn.Tensor(features[step.pos])
            children = [outputs[child] for child in step.children]
            outputs[step.pos] = unit(unit.assemble_input(feats, children))
        return outputs


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
