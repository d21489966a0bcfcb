"""Type-major level-fused execution: the fast path of training and serving.

QPPNet runs one neural unit per operator (paper §4.2) and batches
structure-equal plans (§5.1.1).  The batching observation generalizes
across structures: position ``p`` of structure ``A`` and position ``q``
of structure ``B`` can share one stacked forward whenever they run the
same unit and their children have already been evaluated.  A
:class:`LevelPlan` runs a whole mixed-structure batch that way — one
step per ``(unit type, tree level)``, i.e. **one matmul per unit type
per tree depth for the whole batch** — and it is compiled with numpy
from per-structure index arrays, not from per-position Python objects:

* :class:`GraphLevels` — per structure, memoized by signature in the
  model's :class:`LevelPlanCache`: for each preorder position its step
  key (level × unit type), its unit type, its row within the
  structure's block of that type (its preorder rank among same-type
  positions, which is the featurizer's layout order), and its child
  positions padded to the widest arity (``-1`` = no child).
* :class:`LevelPlan` — per batch (structures plus plans per structure):
  those arrays concatenated, sorted stably by step key and expanded into
  flat row arrays.  Row ``r`` of the batch's output matrix is one
  (structure, position, plan) triple; rows are ordered by step, then
  structure, then position, then plan, so every step owns one
  contiguous block of rows.  Per step and child slot, one index array
  names the output row that each input row reads.

Features enter as **one matrix per unit type**, rows in step order (the
rows of that type's steps, concatenated), so a step's feature columns
are one contiguous block.  :meth:`LevelPlan.by_type` splits any per-row
source index into those per-type orders, so a caller builds each matrix
with one ``take`` from wherever its rows live (the serving feature
cache, a pre-grouped training corpus, per-position group matrices).

Execution is symmetric in both directions:

* :meth:`LevelPlan.forward_training` / :meth:`LevelPlan.forward_inference`
  run the steps in level order: copy the step's feature block, gather
  each child slot with one fancy index (a missing child reads a zero row
  kept past the last output row), and run the unit's MLP straight into
  the step's output block.  Training caches each step's activations.
* :meth:`LevelPlan.backward` walks the steps in reverse, accumulating
  each unit's parameter gradients once per step (into
  :class:`~repro.nn.FlatParameterSpace` views when the trainer bound
  them) and adding each child slot's input gradient back into the
  children's rows with one indexed add.  Level-0 steps skip the
  input-gradient product: their inputs are constant plan features.

The taped autodiff (:meth:`~repro.core.compile.CompiledSchedule.run_training`)
stays the reference: forward outputs and every parameter gradient match
it to <= 1e-9 in float64.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.plans.operators import LogicalType, arity_of

from .batching import PlanGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .unit import NeuralUnit

#: Unit types in their within-level step order (by name).
UNIT_TYPES: tuple[LogicalType, ...] = tuple(sorted(LogicalType, key=lambda t: t.value))
_TYPE_INDEX = {ltype: i for i, ltype in enumerate(UNIT_TYPES)}
#: Child slots per position: the widest unit arity.
MAX_ARITY = max(arity_of(ltype) for ltype in LogicalType)


class GraphLevels:
    """Per-structure index arrays a batch's :class:`LevelPlan` is built from."""

    __slots__ = (
        "n_nodes", "key", "types", "rank", "children", "type_counts", "ltypes", "gaps"
    )

    def __init__(self, graph: PlanGraph) -> None:
        n = graph.n_nodes
        types = np.fromiter((_TYPE_INDEX[t] for t in graph.types), np.intp, count=n)
        children = np.full((n, MAX_ARITY), -1, dtype=np.intp)
        rank = np.empty(n, dtype=np.intp)
        seen = [0] * len(UNIT_TYPES)
        gaps = False
        for pos, (ltype, kids) in enumerate(zip(graph.types, graph.children)):
            arity = arity_of(ltype)
            if len(kids) > arity:
                raise ValueError(
                    f"position {pos} ({ltype.value}) has {len(kids)} children, "
                    f"arity is {arity}"
                )
            gaps = gaps or (0 < len(kids) < arity)
            children[pos, : len(kids)] = kids
            rank[pos] = seen[types[pos]]
            seen[types[pos]] += 1
        self.n_nodes = n
        #: Steps sort by this: level major, unit type minor.
        self.key = np.asarray(graph.heights, dtype=np.intp) * len(UNIT_TYPES) + types
        self.types = types
        self.rank = rank
        self.children = children
        self.type_counts = np.asarray(seen, dtype=np.intp)
        #: The unit types the structure uses.
        self.ltypes = frozenset(graph.types)
        #: Whether some internal node has fewer children than its arity.
        self.gaps = gaps


class LevelStep(NamedTuple):
    """All positions of one unit type at one tree level, fused.

    ``lo:hi`` is the step's block of output rows and ``feature_lo`` where
    its rows start in its type's feature matrix; child slot ``s`` of row
    ``r`` reads output row ``plan.child_rows[s, r]``.  ``node_lo:node_hi``
    is the step's run of :attr:`LevelPlan.order` (its positions).
    """

    unit: "NeuralUnit"
    level: int
    lo: int
    hi: int
    feature_lo: int
    node_lo: int
    node_hi: int


@dataclass
class LevelRun:
    """One forward pass: the plan, its outputs and (optional) tape.

    ``out`` holds one ``(d+1)`` output row per plan row; the tape
    references the step inputs, so a run is valid for exactly one
    forward → backward cadence.
    """

    plan: "LevelPlan"
    out: np.ndarray  # (n_rows, d+1)
    tapes: Optional[list[object]]  # per step; None for inference runs


class LevelPlan:
    """Level-fused execution of one batch: structures × plans per structure.

    Nodes are the batch's ``(structure, position)`` pairs, structure-major
    (``node_offset[g]`` is structure ``g``'s first); ``order`` lists them
    in step order.  Per node, ``node_start`` is its first output row; per
    row, ``row_node`` its node and ``row_plan`` the plan within that
    node's structure.
    """

    def __init__(
        self,
        graphs: Sequence[PlanGraph],
        counts: Sequence[int],
        units: Mapping[LogicalType, "NeuralUnit"],
        levels: Optional[Sequence[GraphLevels]] = None,
    ) -> None:
        if not graphs:
            raise ValueError("LevelPlan requires at least one graph")
        counts = np.asarray(counts, dtype=np.intp).reshape(-1)
        if counts.shape[0] != len(graphs):
            raise ValueError(f"expected {len(graphs)} batch sizes, got {counts.shape[0]}")
        if counts.min() < 0:
            raise ValueError("batch sizes must be non-negative")
        if levels is None:
            levels = [GraphLevels(g) for g in graphs]
        self.graphs: tuple[PlanGraph, ...] = tuple(graphs)
        self.counts = counts
        self._levels = levels
        present = frozenset().union(*(lv.ltypes for lv in levels))
        widths = {units[t].data_size + 1 for t in present}
        if len(widths) != 1:
            raise ValueError("all units must share one output width (d+1)")
        self.width = widths.pop()
        dtypes = {units[t].dtype for t in present}
        if len(dtypes) != 1:
            raise ValueError(
                f"all units must share one compute dtype, got {sorted(map(str, dtypes))}"
            )
        #: Compute precision of every buffer the plan allocates.
        self.dtype = dtypes.pop()
        self._feature_widths = {t: units[t].feature_size for t in present}
        self.has_gaps = any(lv.gaps for lv in levels)

        sizes = [lv.n_nodes for lv in levels]
        self.node_offset = offsets = np.fromiter(
            accumulate(sizes, initial=0), np.intp, len(sizes) + 1
        )
        self.node_graph = node_graph = np.repeat(np.arange(len(levels)), sizes)
        key = np.concatenate([lv.key for lv in levels])
        # Nodes in step order (stable: structure, then position), each
        # expanded into its structure's plan count.
        self.order = order = np.argsort(key, kind="stable")
        node_rows = counts[node_graph[order]]
        ends = np.cumsum(node_rows)
        starts = ends - node_rows
        self.node_start = node_start = np.empty_like(starts)
        node_start[order] = starts
        self.n_rows = n_rows = int(ends[-1])
        self.row_node = row_node = np.repeat(order, node_rows)
        self.row_plan = row_plan = np.arange(n_rows) - np.repeat(starts, node_rows)
        # Per child slot, the output row each row reads; a missing child
        # reads the zero row at ``n_rows`` (only level > 0 rows are read).
        kids = np.concatenate([lv.children for lv in levels])
        kid_start = node_start[kids + offsets[node_graph][:, None]]
        self.child_rows = np.add(kid_start[row_node].T, row_plan, order="C")
        if self.has_gaps:
            self.child_rows[(kids[row_node] < 0).T] = n_rows

        # Steps: runs of equal key in step order.
        sorted_key = key[order]
        node_lo = [0] + (np.flatnonzero(sorted_key[1:] != sorted_key[:-1]) + 1).tolist()
        row_lo = starts[node_lo].tolist()
        n_types = len(UNIT_TYPES)
        feature_rows = [0] * n_types
        steps = []
        for step_key, lo, hi, na, nb in zip(
            sorted_key[node_lo].tolist(),
            row_lo,
            row_lo[1:] + [n_rows],
            node_lo,
            node_lo[1:] + [len(key)],
        ):
            if lo == hi:
                continue  # every structure of this step has zero plans
            level, t = divmod(step_key, n_types)
            steps.append(
                LevelStep(units[UNIT_TYPES[t]], level, lo, hi, feature_rows[t], na, nb)
            )
            feature_rows[t] += hi - lo
        self.steps: tuple[LevelStep, ...] = tuple(steps)
        #: Rows per unit type's feature matrix.
        self.type_rows: dict[LogicalType, int] = {
            UNIT_TYPES[t]: n for t, n in enumerate(feature_rows) if n
        }

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_members(self) -> int:
        """Plans in the batch."""
        return int(self.member_offset[-1])

    # ------------------------------------------------------------------
    # Row geometry
    # ------------------------------------------------------------------
    @cached_property
    def node_pos(self) -> np.ndarray:
        """Per node: its preorder position within its structure."""
        return np.arange(len(self.node_graph)) - self.node_offset[self.node_graph]

    @cached_property
    def node_type(self) -> np.ndarray:
        """Per node: its unit type's index in :data:`UNIT_TYPES`."""
        return np.concatenate([lv.types for lv in self._levels])

    @cached_property
    def member_offset(self) -> np.ndarray:
        """Per structure: its first plan in batch (member) order."""
        offsets = np.zeros(len(self.counts) + 1, dtype=np.intp)
        np.cumsum(self.counts, out=offsets[1:])
        return offsets

    @cached_property
    def row_graph(self) -> np.ndarray:
        """Per row: its structure's index in :attr:`graphs`."""
        return self.node_graph[self.row_node]

    @cached_property
    def row_pos(self) -> np.ndarray:
        """Per row: its preorder position within its structure."""
        return self.node_pos[self.row_node]

    @cached_property
    def row_member(self) -> np.ndarray:
        """Per row: its plan in batch order (structure-major)."""
        return self.member_offset[self.row_graph] + self.row_plan

    @cached_property
    def root_rows(self) -> np.ndarray:
        """Per plan (batch order): the output row of its root."""
        roots = self.node_start[self.node_offset[:-1]]
        return np.repeat(roots - self.member_offset[:-1], self.counts) + np.arange(
            self.n_members
        )

    @cached_property
    def _type_spans(self) -> tuple[np.ndarray, list[tuple[LogicalType, int, int]]]:
        row_type = self.node_type[self.row_node]
        perm = np.argsort(row_type, kind="stable")
        ends = np.cumsum(np.bincount(row_type, minlength=len(UNIT_TYPES))).tolist()
        spans = [
            (UNIT_TYPES[t], lo, hi)
            for t, (lo, hi) in enumerate(zip([0] + ends[:-1], ends))
            if hi > lo
        ]
        return perm, spans

    def by_type(self, per_row: np.ndarray) -> dict[LogicalType, np.ndarray]:
        """Split a per-row array into per-unit-type arrays in step order.

        Given, per output row, the row of some source matrix that holds
        its features, the result is each type's ``take`` index.
        """
        perm, spans = self._type_spans
        ordered = per_row[perm]
        return {ltype: ordered[lo:hi] for ltype, lo, hi in spans}

    @cached_property
    def _type_counts(self) -> np.ndarray:
        """``(structures, unit types)``: positions of each type per structure."""
        return np.array([lv.type_counts for lv in self._levels])

    def _type_major_index(self, member_major: bool) -> dict[LogicalType, np.ndarray]:
        """Per unit type, the ``take`` index into a type-major source that
        stacks the batch structure by structure.  Within a structure the
        source holds its rows of the type plan by plan, each plan's rows
        in preorder (``member_major``), or position by position, each
        position's rows plan by plan."""
        per_graph = self._type_counts * self.counts[:, None]
        graph, ltype = self.node_graph, self.node_type
        base = (np.cumsum(per_graph, axis=0) - per_graph)[graph, ltype]
        rank = np.concatenate([lv.rank for lv in self._levels])
        row_node = self.row_node
        if member_major:
            stride = self._type_counts[graph, ltype]
            per_row = (base + rank)[row_node] + self.row_plan * stride[row_node]
        else:
            per_row = (base + rank * self.counts[graph])[row_node] + self.row_plan
        return self.by_type(per_row)

    @cached_property
    def member_index(self) -> dict[LogicalType, np.ndarray]:
        """Per unit type: the ``take`` index into a *member-major* source.

        A member-major source stacks, plan by plan in batch order, each
        plan's rows of that type in preorder — e.g. per-plan feature
        blocks concatenated.
        """
        return self._type_major_index(member_major=True)

    def node_rows(self, graph: int, pos: int) -> slice:
        """Output rows of ``(graph, pos)``, one per plan of that structure."""
        start = int(self.node_start[self.node_offset[graph] + pos])
        return slice(start, start + int(self.counts[graph]))

    def stack_positions(
        self, features: Sequence[Sequence[np.ndarray]]
    ) -> dict[LogicalType, np.ndarray]:
        """Per-type step-order matrices from per-position matrices.

        ``features[g][p]`` is the ``(counts[g], f_type)`` feature matrix
        of structure ``g``'s position ``p`` (the layout of a
        :class:`~repro.core.batching.StructureGroup`).
        """
        parts: dict[LogicalType, list[np.ndarray]] = {}
        for graph, per_pos in zip(self.graphs, features):
            for ltype, matrix in zip(graph.types, per_pos):
                parts.setdefault(ltype, []).append(matrix)
        return {
            ltype: np.concatenate(parts[ltype]).take(rows, axis=0)
            for ltype, rows in self._position_index.items()
        }

    @cached_property
    def _position_index(self) -> dict[LogicalType, np.ndarray]:
        return self._type_major_index(member_major=False)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _forward(self, features: Mapping[LogicalType, np.ndarray], train: bool) -> LevelRun:
        for ltype, rows in self.type_rows.items():
            shape = (rows, self._feature_widths[ltype])
            if features[ltype].shape != shape:
                raise ValueError(
                    f"{ltype.value} features must have shape {shape}, "
                    f"got {features[ltype].shape}"
                )
        n_rows, width, dtype = self.n_rows, self.width, self.dtype
        # One spare zero row: the output every missing child reads.
        buffer = np.empty((n_rows + 1, width), dtype=dtype)
        buffer[n_rows] = 0.0
        child_rows = self.child_rows
        tapes: Optional[list[object]] = [] if train else None
        for unit, level, lo, hi, feature_lo, _, _ in self.steps:
            x = features[unit.logical_type][feature_lo : feature_lo + hi - lo]
            if unit.arity:
                fs = unit.feature_size
                assembled = np.empty((hi - lo, unit.in_features), dtype=dtype)
                assembled[:, :fs] = x
                if level:
                    for slot in range(unit.arity):
                        col = fs + slot * width
                        assembled[:, col : col + width] = buffer[child_rows[slot, lo:hi]]
                else:
                    assembled[:, fs:] = 0.0
                x = assembled
            if train:
                tapes.append(unit.forward_train(x, out=buffer[lo:hi])[1])
            else:
                unit.forward_numpy(x, out=buffer[lo:hi])
        return LevelRun(self, buffer[:n_rows], tapes)

    def forward_training(self, features: Mapping[LogicalType, np.ndarray]) -> LevelRun:
        """Level-order fused forward caching activations for :meth:`backward`.

        ``features[t]`` is unit type ``t``'s ``(rows, f_t)`` matrix in
        step order (see :meth:`by_type`).
        """
        return self._forward(features, train=True)

    def forward_inference(self, features: Mapping[LogicalType, np.ndarray]) -> LevelRun:
        """Tape-free fused forward (the serving path)."""
        return self._forward(features, train=False)

    def alloc_output_grads(self) -> np.ndarray:
        """Zeroed ``(n_rows, d+1)`` gradient seed for :meth:`backward`.

        The caller writes the loss gradient into the latency column
        (``[:, 0]``); the backward adds the parent-routed contributions to
        the data-vector columns on its way down.
        """
        return np.zeros((self.n_rows, self.width), dtype=self.dtype)

    def backward(self, run: LevelRun, output_grads: np.ndarray) -> None:
        """Reverse level-order backward over the gradient seed.

        Parents run before children.  Each step's closed-form
        ``backward_train`` accumulates its unit's parameter gradients
        once for the whole block and yields the gradient of its input;
        each child slot's columns then add into the children's rows with
        one indexed add (every child has exactly one parent slot, so the
        indices of one slot never repeat).
        """
        if run.tapes is None:
            raise ValueError("backward requires a run from forward_training")
        if run.plan is not self or output_grads.shape != run.out.shape:
            raise ValueError("output_grads must match this plan's forward run")
        n_rows, width = self.n_rows, self.width
        for step, tape in zip(reversed(self.steps), reversed(run.tapes)):
            unit, level, lo, hi = step.unit, step.level, step.lo, step.hi
            grad_in = unit.backward_train(
                output_grads[lo:hi], tape, need_input_grad=level > 0
            )
            if not level:
                continue
            for slot in range(unit.arity):
                col = unit.feature_size + slot * width
                rows = self.child_rows[slot, lo:hi]
                if self.has_gaps:
                    real = rows < n_rows
                    output_grads[rows[real]] += grad_in[real, col : col + width]
                else:
                    output_grads[rows] += grad_in[:, col : col + width]


class LevelPlanCache:
    """LRU of per-structure :class:`GraphLevels`, keyed by signature.

    The cache behind :meth:`~repro.core.model.QPPNet.compile_level_plan`:
    a batch's :class:`LevelPlan` is numpy over these arrays, so only a
    structure never seen before (a miss) walks its graph in Python.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, GraphLevels] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def levels(self, graph: PlanGraph) -> GraphLevels:
        """``graph``'s index arrays, built on first use of its signature."""
        entry = self._entries.get(graph.signature)
        if entry is not None:
            self._entries.move_to_end(graph.signature)
            self.hits += 1
            return entry
        self.misses += 1
        entry = self._entries[graph.signature] = GraphLevels(graph)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
