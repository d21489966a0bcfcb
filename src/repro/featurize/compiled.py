"""Compiled featurization: per-type feature programs + plan-identity cache.

The scalar reference tier (:meth:`Featurizer.transform_node`) walks the
schema per node: Python attribute lookups, per-property ``dict.get``
calls, one tiny numpy array per encoder.  That is fine for building a
training corpus once, but it dominates the serving path now that the
fused execution engine runs the actual matmuls in a fraction of the
time.  This module compiles the walk away, exactly like
:mod:`repro.core.compile` compiled the plan interpreter away:

* :class:`FeatureProgram` — per logical type, the fully *resolved*
  column layout of ``F(op)``: which properties feed the scalar-numeric
  gather (log1p'd and raw), each vector block's slot and length, the
  whitener's mean/std rows, every one-hot's ``category -> absolute
  column`` dict (fixed, learned and physical-op vocabularies all
  pre-merged with their offsets), and the boolean columns.  Running a
  program over ``B`` same-type nodes is a handful of vectorized column
  assignments plus one fancy-index scatter for *all* hot one-hot cells —
  no schema walk, no per-row ``index_of``, no per-encoder zero vector.
  Rows are bitwise identical to ``transform_node`` in float64 (the
  aligned/scalar sync contract extends to this tier; see
  ``tests/featurize/test_compiled.py``).

* :class:`FeatureProgramCache` — lazily compiled programs bound to one
  fitted featurizer, plus the per-structure-signature *layout* (which
  preorder positions share which program) and the per-plan identity
  digest both serving and training key on.

* :class:`FeatureVectorCache` — a bounded LRU from plan identity
  (structure signature + the hashed tuple of every property the
  programs actually read, including ``extra_numeric_fn`` outputs) to the
  finished per-type feature rows.  Production workloads are heavily
  templated — the same plan shapes with near-identical parameters recur
  constantly — so repeated queries skip featurization entirely: one
  digest walk plus a strided row copy per plan.  Hits are byte-for-byte
  the rows a miss would have computed, so cached and uncached
  predictions are identical.

Programs are compiled against one ``fit()``; refitting (or swapping
``extra_numeric_fn``) invalidates the featurizer's cached program tier
(see :meth:`Featurizer.compiled`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.plans.operators import LogicalType

from .encoders import boolean_value
from .schema import FEATURE_SCHEMAS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.batching import PlanGraph
    from repro.plans.node import PlanNode

    from .featurizer import Featurizer

#: Default bound on distinct layouts retained per program cache (ad-hoc
#: workloads with unbounded distinct structures must not grow it).
MAX_CACHED_LAYOUTS = 1024


class FeatureProgram:
    """The resolved featurization of one logical type, ready to run.

    Everything ``transform_node`` would re-derive per call is resolved at
    compile time; :meth:`run` only gathers property values and applies
    the per-column transforms over the whole batch.
    """

    __slots__ = (
        "ltype",
        "width",
        "scalar_props",
        "n_log",
        "n_scalar",
        "vectors",
        "extra_fn",
        "n_extra",
        "extra_col",
        "numeric_width",
        "mean",
        "std",
        "cat_start",
        "onehots",
        "booleans",
        "physical_index",
        "id_props",
        "vec_props",
        "lean",
    )

    def __init__(self, featurizer: "Featurizer", ltype: LogicalType) -> None:
        if not featurizer._fitted:
            raise RuntimeError("featurizer is not fitted")
        schema = FEATURE_SCHEMAS[ltype]
        self.ltype = ltype
        # Scalar numerics: numeric_log then numeric_raw share one gather;
        # only the first n_log columns get the log1p.
        self.scalar_props: tuple[str, ...] = schema.numeric_log + schema.numeric_raw
        self.n_log = len(schema.numeric_log)
        self.n_scalar = len(self.scalar_props)
        col = self.n_scalar
        vectors = []
        for prop, length in schema.vectors:
            vectors.append((prop, length, col))
            col += length
        self.vectors: tuple[tuple[str, int, int], ...] = tuple(vectors)
        self.extra_fn = featurizer.extra_numeric_fn
        self.n_extra = featurizer._n_extra
        if self.n_extra and self.extra_fn is None:
            raise RuntimeError(
                "featurizer was fitted with extra numeric features but has no "
                "extra_numeric_fn attached (re-attach it after deserialization)"
            )
        self.extra_col = col
        col += self.n_extra
        self.numeric_width = col
        whitener = featurizer._whiteners.get(ltype)
        if whitener is not None and whitener.is_fitted:
            if whitener.mean_.shape[0] != self.numeric_width:
                raise RuntimeError(
                    f"whitener for {ltype.value} covers {whitener.mean_.shape[0]} "
                    f"numeric columns but the schema resolves to "
                    f"{self.numeric_width} (featurizer state is inconsistent)"
                )
            self.mean = whitener.mean_
            self.std = whitener.std_
        else:
            self.mean = None
            self.std = None
        # Categorical tail: one-hot blocks carry category -> ABSOLUTE
        # column dicts so every hot cell of the batch lands in a single
        # fancy-index scatter.
        self.cat_start = col
        onehots = []
        for prop, _ in schema.fixed_onehots:
            encoder = featurizer._onehots[(ltype, prop)]
            onehots.append((prop, {c: col + i for i, c in enumerate(encoder.categories)}))
            col += encoder.size
        for prop in schema.learned_onehots:
            encoder = featurizer._onehots[(ltype, prop)]
            onehots.append((prop, {c: col + i for i, c in enumerate(encoder.categories)}))
            col += encoder.size
        self.onehots: tuple[tuple[str, dict[str, int]], ...] = tuple(onehots)
        booleans = []
        for prop in schema.booleans:
            booleans.append((prop, col))
            col += 1
        self.booleans: tuple[tuple[str, int], ...] = tuple(booleans)
        if schema.physical_ops:
            encoder = featurizer._onehots[(ltype, "__physical__")]
            self.physical_index: Optional[dict[str, int]] = {
                c: col + i for i, c in enumerate(encoder.categories)
            }
            col += encoder.size
        else:
            self.physical_index = None
        self.width = col
        # Identity walk: every scalar / one-hot / boolean property in one
        # C-level ``map(props.get, ...)`` pass (vectors need per-value
        # tuple conversion and stay separate; see :meth:`identity`).
        self.id_props: tuple[str, ...] = (
            self.scalar_props
            + tuple(prop for prop, _ in self.onehots)
            + tuple(prop for prop, _ in self.booleans)
        )
        # Vector property names alone (identity needs each value
        # tuple-ized, so they cannot join the ``id_props`` map pass).
        self.vec_props: tuple[str, ...] = tuple(prop for prop, _, _ in self.vectors)
        # A *lean* program's entire property identity is the one ``map``
        # over ``id_props`` — no vectors to tuple-ize, no extra hook to
        # call.  The serving digest walk inlines exactly that (its plan
        # key already pins every node's physical op), so this flag is the
        # per-request fast-path predicate.
        self.lean = not self.vectors and self.extra_fn is None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        nodes: Sequence["PlanNode"],
        out: Optional[np.ndarray] = None,
        dtype: np.dtype = np.float64,
    ) -> np.ndarray:
        """Featurize ``B`` same-type nodes into a ``(B, width)`` matrix.

        Row ``i`` is bitwise identical to ``transform_node(nodes[i])`` in
        float64; a non-float64 ``out`` (or ``dtype``) casts per column
        write exactly like :meth:`Featurizer.transform_aligned`.
        """
        n = len(nodes)
        if n == 0:
            raise ValueError("FeatureProgram.run requires at least one node")
        if out is None:
            out = np.empty((n, self.width), dtype=dtype)
        elif out.shape != (n, self.width):
            raise ValueError(f"out must have shape {(n, self.width)}, got {out.shape}")
        props = [node.props for node in nodes]

        if self.n_scalar:
            out[:, : self.n_scalar] = [
                [float(p.get(prop, 0.0)) for prop in self.scalar_props] for p in props
            ]
            if self.n_log:
                block = out[:, : self.n_log]
                # np.where, not np.maximum: Python's max(0.0, v) — the
                # scalar path — resolves NaN to 0.0 and both must agree.
                np.log1p(np.where(block > 0.0, block, 0.0), out=block)
        for prop, length, col in self.vectors:
            rows = []
            for p in props:
                values = list(p.get(prop, ()))[:length]
                values += [0.0] * (length - len(values))
                rows.append(values)
            mat = np.array(rows, dtype=np.float64)
            out[:, col : col + length] = np.sign(mat) * np.log1p(np.abs(mat))
        if self.extra_fn is not None:
            extra = np.array([[float(v) for v in self.extra_fn(node)] for node in nodes])
            if extra.shape != (n, self.n_extra):
                raise ValueError(
                    f"extra_numeric_fn produced shape {extra.shape}, expected "
                    f"{(n, self.n_extra)} (arity is fixed at fit())"
                )
            out[:, self.extra_col : self.numeric_width] = extra
        if self.mean is not None:
            numeric = out[:, : self.numeric_width]
            numeric -= self.mean
            numeric /= self.std

        # Categorical tail: zero the whole region once, then set every
        # hot cell of every one-hot block in one scatter.
        if self.cat_start < self.width:
            out[:, self.cat_start :] = 0.0
        rows_hot: list[int] = []
        cols_hot: list[int] = []
        for prop, index in self.onehots:
            for i, p in enumerate(props):
                hot = index.get(str(p.get(prop)))
                if hot is not None:
                    rows_hot.append(i)
                    cols_hot.append(hot)
        if self.physical_index is not None:
            index = self.physical_index
            for i, node in enumerate(nodes):
                hot = index.get(node.op.value)
                if hot is not None:
                    rows_hot.append(i)
                    cols_hot.append(hot)
        if rows_hot:
            out[rows_hot, cols_hot] = 1.0
        for prop, col in self.booleans:
            out[:, col] = [boolean_value(p.get(prop, False)) for p in props]
        return out

    # ------------------------------------------------------------------
    # Plan identity
    # ------------------------------------------------------------------
    def identity(self, node: "PlanNode") -> tuple:
        """The raw values of every property this program reads, as a tuple.

        Two nodes with equal identity tuples featurize to bitwise-equal
        rows, so (signature, per-node identities) is a sound feature
        cache key.  This runs per node per request, so the scalar /
        one-hot / boolean walk is one C-level ``map``; absent properties
        identify as ``None``, which is sound (it only distinguishes
        absent from explicit defaults — never conflates values that
        featurize differently).  Vector properties are converted to
        tuples; any remaining unhashable value surfaces as a
        ``TypeError`` at the cache lookup, which the cache treats as
        uncacheable.
        """
        get = node.props.get
        parts: list[object] = list(map(get, self.id_props))
        for prop in self.vec_props:
            value = get(prop, ())
            parts.append(value if type(value) is tuple else tuple(value))
        if self.extra_fn is not None:
            parts.extend(self.extra_fn(node))
        if self.physical_index is not None:
            parts.append(node.op)
        return tuple(parts)

    def __repr__(self) -> str:
        return f"FeatureProgram({self.ltype.value}, width={self.width})"


def _identity_parts(
    layout: Sequence[tuple[FeatureProgram, tuple[int, ...]]],
    nodes: Sequence["PlanNode"],
) -> tuple:
    """One plan's identity tuples, layout-ordered (digest hot loop).

    Per lean program the per-node work is a single ``map`` over its
    property list (equal to :meth:`FeatureProgram.identity` output);
    programs with vectors or an ``extra_numeric_fn`` take the reference
    path.  This runs per plan per request, so it is written for speed.
    """
    parts: list[tuple] = []
    append = parts.append
    for program, positions in layout:
        if program.lean:
            id_props = program.id_props
            if program.physical_index is None:
                for pos in positions:
                    append(tuple(map(nodes[pos].props.get, id_props)))
            else:
                for pos in positions:
                    node = nodes[pos]
                    append((*map(node.props.get, id_props), node.op))
        elif program.extra_fn is None:
            # Vector-carrying program: same single-map walk plus each
            # vector value tuple-ized in place (still no method call).
            id_props = program.id_props
            vec_props = program.vec_props
            phys = program.physical_index is not None
            for pos in positions:
                node = nodes[pos]
                get = node.props.get
                part: list[object] = list(map(get, id_props))
                for prop in vec_props:
                    value = get(prop, ())
                    part.append(value if type(value) is tuple else tuple(value))
                if phys:
                    part.append(node.op)
                append(tuple(part))
        else:
            identity = program.identity
            for pos in positions:
                append(identity(nodes[pos]))
    return tuple(parts)


class FeatureProgramCache:
    """Per-type :class:`FeatureProgram` instances bound to one fitted fit.

    Also resolves per-structure-signature *layouts* — which preorder
    positions of a :class:`~repro.core.batching.PlanGraph` share which
    program — and the per-plan identity digest.  Layouts are LRU-bounded
    so ad-hoc workloads with unbounded distinct structures cannot grow
    the cache without limit (programs themselves are bounded by the
    operator vocabulary).
    """

    def __init__(
        self, featurizer: "Featurizer", max_layouts: int = MAX_CACHED_LAYOUTS
    ) -> None:
        if max_layouts <= 0:
            raise ValueError("max_layouts must be positive")
        self.featurizer = featurizer
        self.max_layouts = max_layouts
        self._programs: dict[LogicalType, FeatureProgram] = {}
        # signature -> ((program, preorder positions), ...)
        self._layouts: OrderedDict[
            str, tuple[tuple[FeatureProgram, tuple[int, ...]], ...]
        ] = OrderedDict()

    def program(self, ltype: LogicalType) -> FeatureProgram:
        """The compiled program for ``ltype`` (compiled on first use)."""
        program = self._programs.get(ltype)
        if program is None:
            program = self._programs[ltype] = FeatureProgram(self.featurizer, ltype)
        return program

    def layout(self, graph: "PlanGraph") -> tuple[tuple[FeatureProgram, tuple[int, ...]], ...]:
        """``((program, preorder positions), ...)`` for one structure.

        Preserves first-appearance type order, matching the grouping the
        serving session has always used, so every position's rows land at
        the same offsets as before.

        Lock-free: the serving drain thread and a lifecycle retrain's
        pre-grouping share this cache (one featurizer), and another
        thread may evict an entry between this lookup and its LRU bump,
        or empty the table under the eviction loop.  Neither raises: a
        layout is an immutable tuple, and a lost bump costs a recompute.
        """
        layouts = self._layouts
        layout = layouts.get(graph.signature)
        if layout is not None:
            try:
                layouts.move_to_end(graph.signature)
            except KeyError:  # evicted by another thread since the lookup
                pass
            return layout
        positions_by_type: dict[LogicalType, list[int]] = {}
        for pos, ltype in enumerate(graph.types):
            positions_by_type.setdefault(ltype, []).append(pos)
        layout = tuple(
            (self.program(ltype), tuple(positions))
            for ltype, positions in positions_by_type.items()
        )
        layouts[graph.signature] = layout
        while len(layouts) > self.max_layouts:
            try:
                layouts.popitem(last=False)
            except KeyError:  # emptied by another thread since the check
                break
        return layout

    def digest(self, graph: "PlanGraph", nodes: Sequence["PlanNode"]) -> tuple:
        """Plan-identity key: ``(signature, per-node identity tuples)``.

        ``nodes`` must be the plan's preorder node list (aligned with
        ``graph.types``).  Identity tuples are ordered by the signature's
        *layout* (type-grouped), not preorder — any fixed canonical order
        is sound, and the layout order lets the hot loop hoist each
        program's property list.  Lean programs (no vector properties, no
        ``extra_numeric_fn``) inline to one C-level ``map`` per node plus
        the physical op where the schema one-hots it; the rest fall back
        to :meth:`FeatureProgram.identity`.
        """
        return (graph.signature, _identity_parts(self.layout(graph), nodes))

    def digests(
        self, graph: "PlanGraph", node_lists: Sequence[Sequence["PlanNode"]], layout=None
    ) -> list[tuple]:
        """:meth:`digest` for a whole structure bucket, with the signature's
        layout resolved once (or the caller's) instead of per plan."""
        layout = layout or self.layout(graph)
        return [(graph.signature, _identity_parts(layout, nodes)) for nodes in node_lists]

    def __len__(self) -> int:
        return len(self._programs)


class FeatureVectorCache:
    """Bounded LRU: plan identity digest -> finished per-type feature rows.

    Values are ``{logical type -> (n_positions, width) array}`` in the
    owner's compute dtype — exactly the rows featurization would write,
    position-major in layout order, so a hit is a strided row copy and
    is byte-for-byte identical to a miss.  Unhashable digests (a plan
    property holding e.g. a dict) are counted as misses and never
    stored, so exotic plans degrade to plain featurization instead of
    erroring.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, dict[LogicalType, np.ndarray]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Optional[dict[LogicalType, np.ndarray]]:
        try:
            entry = self._entries.get(key)
        except TypeError:  # unhashable property value -> uncacheable plan
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, blocks: dict[LogicalType, np.ndarray]) -> None:
        try:
            self._entries[key] = blocks
        except TypeError:
            return
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop entries; counters survive (they are lifetime telemetry)."""
        self._entries.clear()
