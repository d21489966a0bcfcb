"""Structure-bucketed batch inference over a trained :class:`QPPNet`.

See the package docstring of :mod:`repro.serving` for the pipeline
overview.  A session is cheap to construct but meant to be long-lived:
its feature cache, per-type stacking buffers and the model's
per-structure level arrays reach a steady state after the first few
batches of a template workload.  Nothing is kept per structure *mix*:
a fused batch's :class:`~repro.core.levels.LevelPlan` is compiled with
numpy on every call and dropped with it.  What is kept is per
structure: its one-plan level plan, memoized beside the structure's
graph under the same bound (:attr:`InferenceSession.MAX_STRUCTURES`).

Two paths, one fast and one reference:

* **level-fused** (fast) — a batch of at most
  :attr:`InferenceSession.MAX_PLAN_BY_PLAN` (4) plans, the common case
  when the service dispatches on arrival, runs plan by plan: each plan
  through its structure's memoized one-plan level plan, so nothing
  compiles.  Below that size a fused batch costs more per plan than
  the same plans one by one (measured crossover between 4 and 6 plans
  on templated TPC-H and ad-hoc TPC-DS pools).  A larger batch is
  bucketed by structure signature and compiled into one
  :class:`~repro.core.levels.LevelPlan`, whose features are one matrix
  per operator type in the plan's step order, and the whole
  mixed-structure batch runs as one forward: one matmul per unit type
  per tree depth.  Every session entry point runs through this path;
  ``predict`` is a batch of one;
* **taped** (reference) — :meth:`~repro.core.model.QPPNet.predict`
  runs one plan through the model's taped schedule, sharing none of
  the session's caches, buffers or level plans.

Batch-composition contract: a plan's served value depends on its
batch-mates, but only through floating-point rounding (BLAS may sum a
row's products in an order that depends on the stacked matrix's
shape).  In float64, every value of a batch agrees with
``predict_batch([plan])[0]`` to <= 1e-11 relative, and with the taped
``QPPNet.predict`` to <= 1e-9 relative.  In a batch run plan by plan,
each value *is* its batch-of-one value, in either precision.  Values
are bitwise reproducible only for the same batch, which is why poison
isolation recomputes a batch's survivors as one batch.

The session featurizes through the compiled tier
(:mod:`repro.featurize.compiled`): per-type feature *programs* replace
the per-node schema walk, and a bounded LRU **feature-vector cache**
keyed on plan identity (structure signature + every property the
programs read) lets repeated templated queries skip featurization
entirely — a hit is a row copy, byte-for-byte identical to the rows a
miss would compute.  In a fused batch, the misses of every bucket run
together through one program call per type.  Hit/miss/eviction
counters surface through :meth:`InferenceSession.stats` and aggregate
into ``PredictionService.stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.batching import BufferPool, PlanBucket, plan_graph
from repro.core.levels import LevelPlan
from repro.core.model import MIN_PREDICTION_MS, QPPNet
from repro.featurize.compiled import FeatureVectorCache
from repro.plans.node import PlanNode
from repro.plans.operators import LogicalType

from .resilience import NonFinitePrediction

#: Default bound on the per-session feature-vector cache.  Sized for
#: templated production workloads (a few thousand distinct parameter
#: bindings); pass ``feature_cache_size=None`` to disable caching
#: entirely (every plan featurizes from scratch).
DEFAULT_FEATURE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class SessionStats:
    """Point-in-time telemetry snapshot of one :class:`InferenceSession`."""

    requests_served: int
    feature_cache_hits: int
    feature_cache_misses: int
    feature_cache_evictions: int
    feature_cache_entries: int


class InferenceSession:
    """Vectorized ``predict_batch`` front-end for one model.

    Not thread-safe: a session owns mutable stacking buffers (the
    per-type feature matrices of the batch in flight); use one session
    per serving thread.
    """

    #: Default LRU bound on retained stacking buffers (one per operator
    #: type in practice; the bound keeps any keying honest).
    MAX_POOLED_BUFFERS = 1024

    #: Bound on the memoized structure table (preorder ``(op, arity)``
    #: walk -> compiled :class:`PlanGraph`, plus its one-plan
    #: :class:`LevelPlan` once a plan-by-plan batch has used it), which
    #: lets repeat structures skip the per-plan signature-string walk on
    #: the hot path, and small batches skip their compile.  FIFO
    #: eviction: the table is tiny and rebuilt on demand.
    MAX_STRUCTURES = 1024

    #: Batches of at most this many plans run plan by plan through the
    #: memoized one-plan level plans.  Up to here a fused batch's compile
    #: and row geometry cost more per plan than its shared matmuls save
    #: (measured on templated TPC-H and ad-hoc TPC-DS pools: fused costs
    #: 1.2x plan by plan at 4 plans, 0.9-1.0x at 6).
    MAX_PLAN_BY_PLAN = 4

    def __init__(
        self,
        model: QPPNet,
        max_pooled_buffers: Optional[int] = MAX_POOLED_BUFFERS,
        feature_cache_size: Optional[int] = DEFAULT_FEATURE_CACHE_SIZE,
    ) -> None:
        self.model = model
        self.featurizer = model.featurizer
        #: The model's compute precision; features and the session's
        #: stacking buffers are in it, so featurization writes float32
        #: directly for a float32 model (no float64 staging).
        self.dtype = model.config.np_dtype
        self._pool = BufferPool(max_entries=max_pooled_buffers, dtype=self.dtype)
        #: The featurizer's compiled tier (shared across sessions of the
        #: same model: programs and layouts are read-only after compile).
        self.programs = model.featurizer.compiled()
        #: Bounded LRU from plan identity to finished feature rows, or
        #: ``None`` when caching is disabled.  Per-session (not shared):
        #: entries are in the session's compute dtype.
        self.feature_cache: Optional[FeatureVectorCache] = (
            FeatureVectorCache(feature_cache_size)
            if feature_cache_size is not None
            else None
        )
        #: Requests served since construction (monitoring hook).
        self.requests_served = 0
        # Memoized structure resolution (see MAX_STRUCTURES): walk key ->
        # [graph, one-plan level plan or None].
        self._structures: dict[tuple, list] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def predict(self, plan: PlanNode) -> float:
        """Predicted query latency (ms) of one plan: a batch of one."""
        return float(self.predict_batch([plan])[0])

    def predict_batch(self, plans: Sequence[PlanNode]) -> np.ndarray:
        """Predicted query latency (ms) per plan, in request order.

        An empty batch returns an empty array immediately, without
        touching the compile caches or the stacking-buffer pool — the
        coalescing service may race a drain against a final submit and
        legitimately hand us nothing.
        """
        if not plans:
            return np.empty(0)
        scale = self.featurizer.latency_scale_ms
        values = np.empty(len(plans))
        for buckets, level_plan, out in self._runs(plans):
            values[[i for bucket in buckets for i in bucket.indices]] = np.maximum(
                MIN_PREDICTION_MS, out[level_plan.root_rows, 0] * scale
            )
        if not np.isfinite(values).all():
            # Typed, never silent: name the model and the offending
            # plans so the service can treat exactly these requests as
            # poison (batch-relative indices) and complete the rest.
            bad = np.flatnonzero(~np.isfinite(values))
            raise NonFinitePrediction(
                repr(self.model),
                [plans[i].structure_signature() for i in bad],
                [int(i) for i in bad],
            )
        self.requests_served += len(plans)
        return values

    def predict_operators_batch(self, plans: Sequence[PlanNode]) -> list[list[float]]:
        """Per-operator latencies (ms, preorder) per plan, request order.

        Raises :class:`NonFinitePrediction` naming every plan with a
        non-finite operator latency, exactly like :meth:`predict_batch`.
        """
        if not plans:
            return []
        scale = self.featurizer.latency_scale_ms
        results: list[list[float]] = [[] for _ in plans]
        bad: list[int] = []
        for buckets, level_plan, out in self._runs(plans):
            latency = np.maximum(MIN_PREDICTION_MS, out[:, 0] * scale)
            finite = np.isfinite(latency)
            if not finite.all():
                requests = [i for bucket in buckets for i in bucket.indices]
                bad += [requests[m] for m in np.unique(level_plan.row_member[~finite]).tolist()]
                continue
            for gi, bucket in enumerate(buckets):
                first = level_plan.node_offset[gi]
                rows = level_plan.node_start[first : first + bucket.graph.n_nodes]
                for j, index in enumerate(bucket.indices):
                    results[index] = latency[rows + j].tolist()
        if bad:
            bad.sort()
            raise NonFinitePrediction(
                repr(self.model), [plans[i].structure_signature() for i in bad], bad
            )
        self.requests_served += len(plans)
        return results

    def predict_operators(self, plan: PlanNode) -> list[float]:
        """Single-plan per-operator predictions (see ``predict_batch``)."""
        return self.predict_operators_batch([plan])[0]

    def stats(self) -> SessionStats:
        """Telemetry snapshot (zeros for the cache when it is disabled)."""
        cache = self.feature_cache
        return SessionStats(
            requests_served=self.requests_served,
            feature_cache_hits=cache.hits if cache is not None else 0,
            feature_cache_misses=cache.misses if cache is not None else 0,
            feature_cache_evictions=cache.evictions if cache is not None else 0,
            feature_cache_entries=len(cache) if cache is not None else 0,
        )

    # ------------------------------------------------------------------
    # Structure resolution (memoized)
    # ------------------------------------------------------------------
    def _resolve_plan(self, plan: PlanNode):
        """One preorder walk -> ``(memo entry, preorder node list)``.

        The entry is ``[PlanGraph, one-plan LevelPlan or None]``.  The
        flat preorder ``(op, arity)`` stream uniquely determines a
        plan's structure, so it doubles as the memo key: repeat
        structures (the templated-workload steady state) skip the
        signature-string build and graph extraction of
        :func:`~repro.core.batching.plan_graph` entirely, and get back
        the *same* graph object — whose cached signature-string hash
        also makes the downstream digest/bucket dict lookups cheap.
        """
        nodes: list[PlanNode] = []
        key_parts: list = []
        stack = [plan]
        pop = stack.pop
        while stack:
            node = pop()
            nodes.append(node)
            kids = node.children
            key_parts.append(node.op)
            key_parts.append(len(kids))
            if kids:
                stack.extend(reversed(kids))
        key = tuple(key_parts)
        structures = self._structures
        entry = structures.get(key)
        if entry is None:
            if len(structures) >= self.MAX_STRUCTURES:
                del structures[next(iter(structures))]
            entry = structures[key] = [plan_graph(plan), None]
        return entry, nodes

    def _bucket(self, plans: Sequence[PlanNode]) -> list[PlanBucket]:
        """Compose a batch of plans into per-structure buckets.

        Buckets come in canonical sorted-by-signature order — the order
        :func:`~repro.core.batching.group_by_structure` and
        :class:`~repro.core.batching.PreGroupedCorpus` produce — so
        serving and training lay the same structure mix out in the same
        level-plan row order, however the requests arrived; members keep
        arrival order.  Structures resolve through :meth:`_resolve_plan`.
        Buckets merge on ``graph.signature`` (not the memo key): distinct
        physical ops can share a logical signature and must land in one
        bucket, exactly as training groups them.
        """
        buckets: dict[str, PlanBucket] = {}
        for index, plan in enumerate(plans):
            (graph, _), nodes = self._resolve_plan(plan)
            bucket = buckets.get(graph.signature)
            if bucket is None:
                bucket = buckets[graph.signature] = PlanBucket(graph, [], [])
            bucket.indices.append(index)
            bucket.nodes.append(nodes)
        return [buckets[signature] for signature in sorted(buckets)]

    # ------------------------------------------------------------------
    # Execution: plan by plan, or one level-fused forward
    # ------------------------------------------------------------------
    def _runs(
        self, plans: Sequence[PlanNode]
    ) -> Iterator[tuple[list[PlanBucket], LevelPlan, np.ndarray]]:
        """The batch's forwards: ``(buckets, level plan, (rows, d+1) outputs)``.

        A batch of at most :attr:`MAX_PLAN_BY_PLAN` plans runs plan by
        plan, each through its structure's memoized one-plan level plan,
        so it compiles nothing and each value is exactly its batch-of-one
        value.  A larger batch runs as *one* level-fused forward: every
        unit type × tree depth is one stacked matmul across all buckets.
        Callers guarantee ``plans`` is non-empty.
        """
        if len(plans) > self.MAX_PLAN_BY_PLAN:
            prepared: Iterable = [self._prepare(plans)]
        else:
            prepared = map(self._prepare_one, range(len(plans)), plans)
        for buckets, level_plan, features in prepared:
            yield buckets, level_plan, level_plan.forward_inference(features).out

    def _prepare_one(
        self, index: int, plan: PlanNode
    ) -> tuple[list[PlanBucket], LevelPlan, dict[LogicalType, np.ndarray]]:
        """Request ``index`` alone: its structure's memoized one-plan level
        plan (compiled on first use) and its features.  A plan holds no
        per-call state, and the model's units are bound once, so a memo
        hit runs exactly what a compile would."""
        entry, nodes = self._resolve_plan(plan)
        graph, level_plan = entry
        if level_plan is None:
            level_plan = entry[1] = self.model.compile_level_plan([graph], [1])
        buckets = [PlanBucket(graph, [index], [nodes])]
        return buckets, level_plan, self._featurize(buckets, level_plan)

    def _prepare(
        self, plans: Sequence[PlanNode]
    ) -> tuple[list[PlanBucket], LevelPlan, dict[LogicalType, np.ndarray]]:
        """Bucket, compile and featurize a fused batch:
        ``(buckets, level plan, features)``.

        Canonical (sorted-by-signature) bucket order matches the order
        group_by_structure/PreGroupedCorpus produce, so serving and
        training lay the same structure mix out identically.
        """
        buckets = self._bucket(plans)
        level_plan = self.model.compile_level_plan(
            [b.graph for b in buckets], [len(b.indices) for b in buckets]
        )
        return buckets, level_plan, self._featurize(buckets, level_plan)

    def _featurize(
        self, buckets: Sequence[PlanBucket], level_plan: LevelPlan
    ) -> dict[LogicalType, np.ndarray]:
        """The batch's features: one step-order matrix per unit type.

        Each plan's rows come from the feature-vector cache when its
        identity digest hits; the misses of the whole batch run through
        one :class:`~repro.featurize.compiled.FeatureProgram` call per
        logical type, and each miss's blocks are cached.  The plans'
        blocks form one member-major matrix per type (see
        :attr:`~repro.core.levels.LevelPlan.member_index`) — the program
        output itself when every plan missed, one plan's cached blocks,
        else one concatenate — and one ``take`` per type puts its rows in
        step order, into a pooled buffer unless the batch is one plan.
        """
        programs, cache = self.programs, self.feature_cache
        bucket_layouts = [(b, programs.layout(b.graph)) for b in buckets]
        layouts = [layout for b, layout in bucket_layouts for _ in b.indices]
        nodes = [plan_nodes for b in buckets for plan_nodes in b.nodes]
        if cache is None:
            entries: list[Optional[dict]] = [None] * len(nodes)
        else:
            digests = [
                d for b, layout in bucket_layouts for d in programs.digests(b.graph, b.nodes, layout)
            ]
            entries = [cache.get(digest) for digest in digests]
        missed = [m for m, entry in enumerate(entries) if entry is None]
        if missed:
            sources = self._run_programs([nodes[m] for m in missed], [layouts[m] for m in missed])
            if cache is not None:
                # Copies: a cached block must not pin the batch's matrices.
                cursor = dict.fromkeys(sources, 0)
                for m in missed:
                    blocks = entries[m] = {}
                    for program, positions in layouts[m]:
                        at = cursor[program.ltype]
                        cursor[program.ltype] = end = at + len(positions)
                        blocks[program.ltype] = sources[program.ltype][at:end].copy()
                    cache.put(digests[m], blocks)
        if len(nodes) == 1:
            # One plan: its blocks are the source, and fresh rows are
            # cheaper than a pooled buffer at this size.
            if not missed:
                sources = entries[0]
            return {
                ltype: sources[ltype].take(rows, axis=0)
                for ltype, rows in level_plan.member_index.items()
            }
        if len(missed) < len(nodes):
            parts: dict = {}
            for entry, layout in zip(entries, layouts):
                for program, _ in layout:
                    parts.setdefault(program.ltype, []).append(entry[program.ltype])
            sources = {ltype: np.concatenate(blocks) for ltype, blocks in parts.items()}
        take = self._pool.take
        return {
            ltype: np.take(
                sources[ltype],
                rows,
                axis=0,
                out=take(ltype, (len(rows), sources[ltype].shape[1])),
            )
            for ltype, rows in level_plan.member_index.items()
        }

    def _run_programs(
        self, node_lists: Sequence[list[PlanNode]], layouts: Sequence[tuple]
    ) -> dict[LogicalType, np.ndarray]:
        """Featurize plans (preorder node lists, with their layouts): one
        program run per logical type, member-major — each plan's rows of
        that type in preorder, plans in the given order."""
        by_program: dict = {}
        for plan_nodes, layout in zip(node_lists, layouts):
            for program, positions in layout:
                by_program.setdefault(program, []).extend([plan_nodes[p] for p in positions])
        return {
            program.ltype: program.run(type_nodes, dtype=self.dtype)
            for program, type_nodes in by_program.items()
        }
