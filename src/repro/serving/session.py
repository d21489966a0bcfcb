"""Structure-bucketed batch inference over a trained :class:`QPPNet`.

See the package docstring of :mod:`repro.serving` for the pipeline
overview.  A session is cheap to construct but meant to be long-lived:
its feature cache, per-type stacking buffers and the model's
per-structure level arrays reach a steady state after the first few
batches of a template workload.  Nothing is kept per structure *mix*:
a batch's :class:`~repro.core.levels.LevelPlan` is compiled with numpy
on every call and dropped with it.

Two serving paths:

* **whole-batch level-fused** — ``predict_batch`` buckets the request
  batch by structure signature, compiles one
  :class:`~repro.core.levels.LevelPlan` for the buckets, builds one
  feature matrix per operator type in the plan's step order, and runs
  the whole mixed-structure batch as one forward: one matmul per unit
  type per tree depth;
* **direct single-plan** — ``predict`` routes one plan straight through
  its compiled schedule's ``run_inference``, skipping bucketing and
  per-batch compilation, whose overhead is pure waste at batch size 1.

Both paths featurize through the compiled tier
(:mod:`repro.featurize.compiled`): per-type feature *programs* replace
the per-node schema walk, and a bounded LRU **feature-vector cache**
keyed on plan identity (structure signature + every property the
programs read) lets repeated templated queries skip featurization
entirely — a hit is a row copy, byte-for-byte identical to the rows a
miss would compute.  In a batch, the misses of every bucket run together
through one program call per type.  Hit/miss/eviction counters surface
through :meth:`InferenceSession.stats` and aggregate into
``PredictionService.stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import nn
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
    #: walk -> compiled :class:`PlanGraph`), which lets repeat structures
    #: skip the per-plan signature-string walk on the hot path.  FIFO
    #: eviction: the table is tiny and rebuilt on demand.
    MAX_STRUCTURES = 1024

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
        # Memoized structure resolution (see MAX_STRUCTURES).
        self._structures: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def predict(self, plan: PlanNode) -> float:
        """Single-plan fast path: straight through the compiled schedule.

        Equivalent to ``predict_batch([plan])[0]`` but skips bucketing
        and level-plan dispatch — the per-call overhead that dominates at
        batch size 1 (see ``benchmarks/test_serving_throughput.py``).
        Featurizes through the compiled programs and the feature-vector
        cache (a repeat of a templated query runs one digest walk plus
        one ``run_inference``), then one forward on the plan's compiled
        schedule, matching :meth:`QPPNet.predict` to <= 1e-9.
        """
        self.requests_served += 1
        graph, nodes = self._resolve_plan(plan)
        features = self._featurize_plan(graph, nodes)
        schedule = self.model.compile_schedule(graph)
        with nn.inference_mode():
            outputs = schedule.run_inference(features)
        scale = self.featurizer.latency_scale_ms
        value = float(outputs[0][0, 0]) * scale
        if not np.isfinite(value):
            raise NonFinitePrediction(repr(self.model), [graph.signature], [0])
        return max(MIN_PREDICTION_MS, value)

    def predict_batch(self, plans: Sequence[PlanNode]) -> np.ndarray:
        """Predicted query latency (ms) per plan, in request order.

        An empty batch returns an empty array immediately, without
        touching the compile caches or the stacking-buffer pool — the
        coalescing service may race a drain against a final submit and
        legitimately hand us nothing.
        """
        if not plans:
            return np.empty(0)
        buckets, level_plan, out = self._run(plans)
        scale = self.featurizer.latency_scale_ms
        values = np.empty(len(plans))
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
        buckets, level_plan, out = self._run(plans)
        latency = np.maximum(MIN_PREDICTION_MS, out[:, 0] * self.featurizer.latency_scale_ms)
        finite = np.isfinite(latency)
        if not finite.all():
            requests = [i for bucket in buckets for i in bucket.indices]
            bad = sorted(
                requests[m] for m in np.unique(level_plan.row_member[~finite]).tolist()
            )
            raise NonFinitePrediction(
                repr(self.model), [plans[i].structure_signature() for i in bad], bad
            )
        results: list[list[float]] = [[] for _ in plans]
        for gi, bucket in enumerate(buckets):
            first = level_plan.node_offset[gi]
            rows = level_plan.node_start[first : first + bucket.graph.n_nodes]
            for j, index in enumerate(bucket.indices):
                results[index] = latency[rows + j].tolist()
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
        """One preorder walk -> ``(PlanGraph, preorder node list)``.

        The flat preorder ``(op, arity)`` stream uniquely determines a
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
        graph = structures.get(key)
        if graph is None:
            if len(structures) >= self.MAX_STRUCTURES:
                del structures[next(iter(structures))]
            graph = structures[key] = plan_graph(plan)
        return graph, nodes

    def _bucket(self, plans: Sequence[PlanNode]) -> list[PlanBucket]:
        """Memoized twin of :func:`~repro.core.batching.bucket_plans`.

        Identical contract — canonical sorted-by-signature bucket order,
        arrival order within a bucket — but structures resolve through
        :meth:`_resolve_plan`.  Buckets merge on ``graph.signature`` (not
        the memo key): distinct physical ops can share a logical
        signature and must land in one bucket, exactly as the uncached
        helper groups them.
        """
        buckets: dict[str, PlanBucket] = {}
        for index, plan in enumerate(plans):
            graph, nodes = self._resolve_plan(plan)
            bucket = buckets.get(graph.signature)
            if bucket is None:
                bucket = buckets[graph.signature] = PlanBucket(graph, [], [])
            bucket.indices.append(index)
            bucket.nodes.append(nodes)
        return [buckets[signature] for signature in sorted(buckets)]

    # ------------------------------------------------------------------
    # Level-fused whole-batch execution
    # ------------------------------------------------------------------
    def _run(
        self, plans: Sequence[PlanNode]
    ) -> tuple[list[PlanBucket], LevelPlan, np.ndarray]:
        """``(buckets, level plan, (rows, d+1) outputs)`` of one batch.

        The entire request batch runs as *one* level-fused forward:
        every unit type × tree depth is one stacked matmul across all
        buckets.  Callers guarantee ``plans`` is non-empty.
        """
        buckets, level_plan, features = self._prepare(plans)
        # The tape flag is scoped around the forward only: the fused
        # forward is numpy throughout, but any custom module falling
        # back to taped forward stays tape-free.
        with nn.inference_mode():
            run = level_plan.forward_inference(features)
        return buckets, level_plan, run.out

    def _prepare(
        self, plans: Sequence[PlanNode]
    ) -> tuple[list[PlanBucket], LevelPlan, dict[LogicalType, np.ndarray]]:
        """Bucket, compile and featurize: ``(buckets, level plan, features)``.

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
        output itself when every plan missed, else one concatenate — and
        one ``take`` per type puts its rows in step order.
        """
        programs, cache = self.programs, self.feature_cache
        layouts = [programs.layout(b.graph) for b in buckets for _ in b.indices]
        nodes = [plan_nodes for b in buckets for plan_nodes in b.nodes]
        if cache is None:
            entries: list[Optional[dict]] = [None] * len(nodes)
        else:
            digests = [d for b in buckets for d in programs.digests(b.graph, b.nodes)]
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

    def _featurize_plan(self, graph, nodes: list[PlanNode]) -> list[np.ndarray]:
        """Per-position ``(1, f_type)`` feature rows for one plan.

        Single-plan twin of :meth:`_featurize_bucket`: same programs,
        same cache, no pooled stacking buffers (each block is one small
        allocation that the cache retains on a miss).
        """
        cache = self.feature_cache
        blocks: Optional[dict] = None
        digest: tuple = ()
        if cache is not None:
            digest = self.programs.digest(graph, nodes)
            blocks = cache.get(digest)
        features: list[np.ndarray] = [np.empty(0)] * graph.n_nodes
        if blocks is None:
            blocks = {}
            for program, positions in self.programs.layout(graph):
                blocks[program.ltype] = program.run(
                    [nodes[pos] for pos in positions], dtype=self.dtype
                )
            if cache is not None:
                cache.put(digest, blocks)
        for program, positions in self.programs.layout(graph):
            block = blocks[program.ltype]
            for k, pos in enumerate(positions):
                features[pos] = block[k : k + 1]
        return features
