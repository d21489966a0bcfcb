"""Plan-based batch training support (paper §5.1.1).

Plans whose trees have identical *logical structure* can be vectorized
together: position ``p`` of every plan in the group runs through the same
neural unit, so the per-position feature vectors stack into matrices and
one forward pass serves the whole group.

``vectorize_corpus`` turns analyzed plans into :class:`VectorizedPlan`
rows (features + per-operator labels, preorder-indexed);
``group_by_structure`` partitions them into :class:`StructureGroup`
equivalence classes, each with stacked feature/label matrices.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.featurize.featurizer import Featurizer
from repro.plans.node import PlanNode
from repro.plans.operators import LogicalType
from repro.workload.generator import PlanSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .levels import LevelPlan


@dataclass(frozen=True)
class PlanGraph:
    """The shared tree structure of one equivalence class."""

    signature: str
    types: tuple[LogicalType, ...]  # logical type per preorder position
    children: tuple[tuple[int, ...], ...]  # child positions per position
    postorder: tuple[int, ...]  # evaluation order (children first)

    @property
    def n_nodes(self) -> int:
        return len(self.types)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Subtree height per position (0 for leaves), memoized.

        One iterative postorder pass (children are visited before their
        parents, so each node is O(arity)) — the same height assignment
        the level-fused compiler buckets steps by.
        """
        height = [0] * self.n_nodes
        for pos in self.postorder:
            kids = self.children[pos]
            if kids:
                height[pos] = 1 + max(height[k] for k in kids)
        return tuple(height)

    def depth_of(self, pos: int) -> int:
        """Subtree depth below ``pos`` (1 for leaves)."""
        return self.heights[pos] + 1


def plan_graph(root: PlanNode) -> PlanGraph:
    """Extract the :class:`PlanGraph` of a single plan."""
    nodes = list(root.preorder())
    index = {id(node): i for i, node in enumerate(nodes)}
    types = tuple(node.logical_type for node in nodes)
    children = tuple(tuple(index[id(c)] for c in node.children) for node in nodes)
    post = tuple(index[id(node)] for node in root.postorder())
    return PlanGraph(root.structure_signature(), types, children, post)


@dataclass
class VectorizedPlan:
    """One analyzed plan, featurized: the unit inputs and labels."""

    graph: PlanGraph
    features: list[np.ndarray]  # per position, shape (f_type,)
    labels: np.ndarray  # per position: actual latency / scale
    latency_ms: float
    template_id: str


def vectorize_plan(sample: PlanSample, featurizer: Featurizer) -> VectorizedPlan:
    graph = plan_graph(sample.plan)
    features = featurizer.transform_plan(sample.plan)
    scale = featurizer.latency_scale_ms
    labels = np.array(
        [
            (node.actual_total_ms if node.actual_total_ms is not None else 0.0) / scale
            for node in sample.plan.preorder()
        ]
    )
    return VectorizedPlan(graph, features, labels, sample.latency_ms, sample.template_id)


def vectorize_corpus(
    samples: Sequence[PlanSample], featurizer: Featurizer
) -> list[VectorizedPlan]:
    return [vectorize_plan(s, featurizer) for s in samples]


@dataclass
class StructureGroup:
    """An equivalence class of structure-identical plans, stacked.

    ``features[p]`` has shape ``(B, f_type(p))``; ``labels`` has shape
    ``(B, n_nodes)``.
    """

    graph: PlanGraph
    features: list[np.ndarray]
    labels: np.ndarray

    @property
    def n_plans(self) -> int:
        return self.labels.shape[0]

    @property
    def n_operators(self) -> int:
        return self.labels.size


@dataclass
class PlanBucket:
    """Structure-equal plans composed out of one (possibly ad-hoc) batch.

    Unlike :class:`StructureGroup` — which carries pre-featurized, stacked
    matrices for training — a bucket is the *composition* step only: it
    records which positions of the incoming request order share a
    structure, plus each member's preorder node list, so the caller can
    featurize and scatter however it likes.  This is the unit the serving
    tier coalesces independently submitted plans into.
    """

    graph: PlanGraph
    indices: list[int]  # positions in the incoming request order
    nodes: list[list[PlanNode]]  # per request: plan nodes in preorder

    @property
    def n_plans(self) -> int:
        return len(self.indices)


class BufferPool:
    """Reusable stacking buffers, keyed by the caller (hot-path allocs).

    ``take(key, shape)`` returns a writable ``(rows, width)`` array; the
    backing allocation is kept per key and handed out again on the next
    call, growing only when ``rows`` exceeds the stored capacity.  Reuse
    is only safe once the previous batch built from the pool is fully
    consumed (in training: after ``loss.backward()`` + optimizer step),
    which is exactly the batch-at-a-time cadence of the trainer and the
    serving session.

    ``max_entries`` bounds the number of retained buffers (LRU
    eviction), so a long-lived pool serving ever-new keys — e.g. an
    ad-hoc workload with unbounded distinct plan structures — cannot
    grow without limit.  Evicted buffers still referenced by a live
    batch stay valid (ordinary refcounting); only the pool forgets them.

    The pool is dtype-aware: ``dtype`` sets the default allocation
    precision (a float32 model's buffers are float32 end to end), a
    per-call ``take(..., dtype=...)`` overrides it, and a cached buffer
    of the wrong dtype is replaced rather than handed out — a key can
    never silently serve the wrong precision.
    """

    def __init__(
        self, max_entries: Optional[int] = None, dtype: np.dtype = np.float64
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self.dtype = np.dtype(dtype)
        self._buffers: OrderedDict[object, np.ndarray] = OrderedDict()

    def take(
        self,
        key: object,
        shape: tuple[int, int],
        dtype: Optional[np.dtype] = None,
    ) -> np.ndarray:
        rows, width = shape
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        buffer = self._buffers.get(key)
        if (
            buffer is None
            or buffer.shape[0] < rows
            or buffer.shape[1] != width
            or buffer.dtype != dtype
        ):
            buffer = np.empty((rows, width), dtype=dtype)
            self._buffers[key] = buffer
        if self.max_entries is not None:
            self._buffers.move_to_end(key)
            while len(self._buffers) > self.max_entries:
                self._buffers.popitem(last=False)
        return buffer[:rows]

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        self._buffers.clear()


def group_by_structure(
    plans: Sequence[VectorizedPlan], dtype: Optional[np.dtype] = None
) -> list[StructureGroup]:
    """Partition into equivalence classes c1..cn (paper §5.1.1).

    Each group's feature and label matrices are stacked in ``dtype``
    (the rows' own precision when ``None``), so a float32 model's taped
    batches enter its units in float32.
    """
    buckets: dict[str, list[VectorizedPlan]] = {}
    for plan in plans:
        buckets.setdefault(plan.graph.signature, []).append(plan)
    groups = []
    for signature in sorted(buckets):
        members = buckets[signature]
        graph = members[0].graph
        features = [
            np.vstack([m.features[p] for m in members], dtype=dtype)
            for p in range(graph.n_nodes)
        ]
        labels = np.vstack([m.labels for m in members], dtype=dtype)
        groups.append(StructureGroup(graph, features, labels))
    return groups


def _gather_rows(
    src: np.ndarray, rows: np.ndarray, pool: Optional[BufferPool], key: object
) -> np.ndarray:
    """Row-gather ``src[rows]`` into a pooled buffer (one fancy-index op)."""
    if pool is None:
        return src[rows]
    # Match the source dtype exactly (np.take's out= requires it); the
    # pre-stacked corpus matrices already carry the compute dtype.
    out = pool.take(key, (len(rows), src.shape[1]), dtype=src.dtype)
    np.take(src, rows, axis=0, out=out)
    return out


class PreGroupedCorpus:
    """Epoch-level pre-grouping of a fixed training corpus, stored type-major.

    ``group_by_structure`` re-buckets the batch and re-stacks Python lists
    of per-plan rows on *every* batch, even though group membership never
    changes across a training run.  This grouping is done once here: the
    corpus is partitioned by structure signature up front and every
    feature row lands in **one matrix per logical type**
    (:attr:`features`) — group by group in canonical signature order,
    position by position in preorder, plan by plan.  Each group's
    per-position matrices are contiguous views into those, and its
    ``(B, n_nodes)`` label matrix is a view into one flat label vector
    (:attr:`labels`) laid out the same way.

    A random batch (:meth:`iter_batches`) is a :class:`CorpusBatch` —
    which plans, grouped by structure — and
    :meth:`CorpusBatch.take` materializes it in a level plan's step order
    with one ``take`` per unit type plus one for the labels.

    Sampling stays unbiased exactly as §5.1.1 requires: batches are
    uniform random subsets of the whole corpus (a fresh permutation per
    epoch), and grouping happens *within* each batch.

    ``dtype`` is the precision the matrices are stored in.  Casting once
    at construction means every per-batch ``take`` — and everything
    downstream of it: assembly, matmuls, loss — runs in the compute
    dtype with no per-batch conversion.
    """

    def __init__(
        self, plans: Sequence[VectorizedPlan], dtype: np.dtype = np.float64
    ) -> None:
        if not plans:
            raise ValueError("PreGroupedCorpus requires at least one plan")
        buckets: dict[str, list[int]] = {}
        for i, plan in enumerate(plans):
            buckets.setdefault(plan.graph.signature, []).append(i)
        members = [buckets[signature] for signature in sorted(buckets)]
        self._store(group_by_structure(plans), members, dtype)

    def _store(
        self,
        groups: Sequence[StructureGroup],
        members: Sequence[Sequence[int]],
        dtype: np.dtype,
    ) -> None:
        """Store stacked groups type-major and re-point them at views.

        ``members[g]`` are group ``g``'s global plan indices, in row
        order.  Features and labels are cast to ``dtype`` once, here.
        """
        blocks: dict[LogicalType, list[np.ndarray]] = {}
        for group in groups:
            for ltype, matrix in zip(group.graph.types, group.features):
                blocks.setdefault(ltype, []).append(matrix)
        self.features: dict[LogicalType, np.ndarray] = {
            ltype: np.concatenate(parts).astype(dtype, copy=False)
            for ltype, parts in blocks.items()
        }
        # Labels flatten position-major per group, like the features.
        self.labels = np.concatenate(
            [np.asarray(group.labels).T.reshape(-1) for group in groups]
        ).astype(dtype, copy=False)
        self.dtype = self.labels.dtype
        self.n_plans = sum(len(group) for group in members)
        self.groups: list[StructureGroup] = []
        # Global plan index -> (group id, row inside the group's matrices).
        self._group_of = np.empty(self.n_plans, dtype=np.intp)
        self._row_of = np.empty(self.n_plans, dtype=np.intp)
        # Per node (group-major, preorder): its first feature row in its
        # type's matrix and its first entry in the label vector.
        feature_rows: list[int] = []
        label_rows: list[np.ndarray] = []
        self._node_offset = np.zeros(len(groups), dtype=np.intp)
        next_row = dict.fromkeys(self.features, 0)
        label_at = 0
        for gid, (source, group) in enumerate(zip(groups, members)):
            graph, n = source.graph, len(group)
            self._node_offset[gid] = len(feature_rows)
            features = []
            for ltype in graph.types:
                row = next_row[ltype]
                features.append(self.features[ltype][row : row + n])
                feature_rows.append(row)
                next_row[ltype] = row + n
            size = n * graph.n_nodes
            label_rows.append(label_at + n * np.arange(graph.n_nodes))
            labels = self.labels[label_at : label_at + size].reshape(graph.n_nodes, n).T
            label_at += size
            self._group_of[group] = gid
            self._row_of[group] = np.arange(n)
            self.groups.append(StructureGroup(graph, features, labels))
        self._node_feature_row = np.asarray(feature_rows, dtype=np.intp)
        self._node_label_row = np.concatenate(label_rows)

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[PlanSample],
        featurizer: Featurizer,
        dtype: np.dtype = np.float64,
    ) -> "PreGroupedCorpus":
        """Pre-grouped corpus straight from raw samples, via the compiled
        featurization tier — no intermediate :class:`VectorizedPlan`\\ s.

        Equivalent (bitwise, feature and label matrices alike) to
        ``PreGroupedCorpus(vectorize_corpus(samples, featurizer), dtype)``
        but featurizes each group through per-type
        :class:`~repro.featurize.compiled.FeatureProgram` runs — one
        vectorized pass per (structure, logical type) over the whole
        group instead of a per-node schema walk per plan.  Programs run
        in float64 and the type matrices are cast once at the end,
        matching the reference path's featurize-then-cast order exactly.
        """
        if not samples:
            raise ValueError("PreGroupedCorpus requires at least one plan")
        programs = featurizer.compiled()
        scale = featurizer.latency_scale_ms
        node_lists = [list(s.plan.preorder()) for s in samples]
        buckets: dict[str, list[int]] = {}
        for i, sample in enumerate(samples):
            buckets.setdefault(sample.plan.structure_signature(), []).append(i)
        members = [buckets[signature] for signature in sorted(buckets)]
        groups = []
        for group in members:
            graph = plan_graph(samples[group[0]].plan)
            n = len(group)
            features: list[np.ndarray] = [np.empty(0)] * graph.n_nodes
            for program, positions in programs.layout(graph):
                block = program.run(
                    [node_lists[i][pos] for pos in positions for i in group]
                )
                for k, pos in enumerate(positions):
                    features[pos] = block[k * n : (k + 1) * n]
            labels = np.array(
                [
                    [
                        (
                            node.actual_total_ms
                            if node.actual_total_ms is not None
                            else 0.0
                        )
                        / scale
                        for node in node_lists[i]
                    ]
                    for i in group
                ]
            )
            groups.append(StructureGroup(graph, features, labels))
        self = cls.__new__(cls)
        self._store(groups, members, np.dtype(dtype))
        return self

    @property
    def n_structures(self) -> int:
        return len(self.groups)

    def batch(
        self, indices: np.ndarray, pool: Optional[BufferPool] = None
    ) -> "CorpusBatch":
        """The plans at global ``indices``, grouped by structure.

        Same group order and same row order within each group as
        ``group_by_structure([plans[i] for i in indices])``.
        """
        indices = np.asarray(indices, dtype=np.intp)
        gsel = self._group_of[indices]
        order = np.argsort(gsel, kind="stable")
        group_ids, counts = np.unique(gsel, return_counts=True)
        return CorpusBatch(self, group_ids, counts, self._row_of[indices[order]], pool)

    def iter_batches(
        self,
        batch_size: int,
        rng: np.random.Generator,
        pool: Optional[BufferPool] = None,
    ):
        """Random :class:`CorpusBatch`\\ es covering the corpus once
        (cf. :func:`sample_batches`); ``pool`` backs their ``take``."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = rng.permutation(self.n_plans)
        for start in range(0, self.n_plans, batch_size):
            yield self.batch(order[start : start + batch_size], pool)


@dataclass
class CorpusBatch:
    """One batch of a :class:`PreGroupedCorpus`: which plans, by structure.

    ``group_ids`` are the corpus groups present, in canonical order;
    ``counts`` their plans in the batch; ``rows`` each plan's row within
    its corpus group — group by group, draw order within a group.
    """

    corpus: PreGroupedCorpus
    group_ids: np.ndarray
    counts: np.ndarray
    rows: np.ndarray
    pool: Optional[BufferPool] = None

    @classmethod
    def of_groups(
        cls, groups: Sequence[StructureGroup], dtype: np.dtype
    ) -> "CorpusBatch":
        """Already-stacked groups (e.g. from :func:`group_by_structure`)
        as one whole batch, cast to the compute ``dtype``."""
        corpus = PreGroupedCorpus.__new__(PreGroupedCorpus)
        bounds = np.cumsum([0] + [group.n_plans for group in groups])
        corpus._store(groups, [range(a, b) for a, b in zip(bounds, bounds[1:])], dtype)
        return corpus.batch(np.arange(corpus.n_plans))

    @property
    def graphs(self) -> list[PlanGraph]:
        return [self.corpus.groups[g].graph for g in self.group_ids]

    @property
    def n_plans(self) -> int:
        return len(self.rows)

    def take(self, plan: "LevelPlan") -> tuple[dict[LogicalType, np.ndarray], np.ndarray]:
        """The batch in ``plan``'s layout: per-type feature matrices in
        step order and the labels in output-row order — one ``take`` per
        unit type plus one for the labels.  ``plan`` must be compiled
        for :attr:`graphs` and :attr:`counts`."""
        corpus = self.corpus
        node = corpus._node_offset[self.group_ids][plan.row_graph] + plan.row_pos
        row = self.rows[plan.row_member]
        features = {
            ltype: _gather_rows(
                corpus.features[ltype], rows, self.pool, ("features", ltype)
            )
            for ltype, rows in plan.by_type(corpus._node_feature_row[node] + row).items()
        }
        label_rows = corpus._node_label_row[node] + row
        if self.pool is None:
            labels = corpus.labels[label_rows]
        else:
            labels = self.pool.take("labels", (len(label_rows), 1), dtype=corpus.dtype)[:, 0]
            np.take(corpus.labels, label_rows, out=labels)
        return features, labels


def sample_batches(
    plans: Sequence[VectorizedPlan],
    batch_size: int,
    rng: np.random.Generator,
) -> list[list[VectorizedPlan]]:
    """Simple random large batches (before in-batch structure grouping).

    Random sampling keeps the gradient estimate unbiased; grouping happens
    *inside* each batch (the paper's key point: grouping the whole corpus
    into per-structure batches would bias the gradient).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = rng.permutation(len(plans))
    return [
        [plans[i] for i in order[start : start + batch_size]]
        for start in range(0, len(plans), batch_size)
    ]
