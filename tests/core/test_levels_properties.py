"""Property sweep: the type-major LevelPlan against the taped reference.

Hypothesis draws random structure mixes — repeated structures, zero-count
groups, single-node plans, nodes with fewer children than their type's
arity — and random unit shapes.  The fused forward outputs and every
parameter gradient of the Eq. 7 loss must match the taped autodiff
(per-structure ``CompiledSchedule.run_training``) to <= 1e-9 in float64;
a float32 plan must track the float64 reference within the float32
contract (<= 1e-4 relative on outputs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import CompiledSchedule, LevelPlan, PlanGraph
from repro.core.unit import NeuralUnit
from repro.plans.operators import LogicalType, arity_of

TYPES = sorted(LogicalType, key=lambda t: t.value)


@st.composite
def trees(draw, depth=0, max_depth=4):
    """``(type, [children])`` with at most ``arity`` children per node."""
    ltype = draw(st.sampled_from(TYPES))
    n_kids = draw(st.integers(0, arity_of(ltype))) if depth < max_depth else 0
    return ltype, [draw(trees(depth + 1, max_depth)) for _ in range(n_kids)]


def to_graph(tree) -> PlanGraph:
    types: list[LogicalType] = []
    children: list[list[int]] = []
    post: list[int] = []

    def walk(node) -> int:
        idx = len(types)
        types.append(node[0])
        children.append([])
        for kid in node[1]:
            children[idx].append(walk(kid))
        post.append(idx)
        return idx

    walk(tree)
    signature = repr([(t.value, tuple(k)) for t, k in zip(types, children)])
    return PlanGraph(signature, tuple(types), tuple(map(tuple, children)), tuple(post))


@st.composite
def batches(draw):
    """Structures (some repeated) with plan counts (some zero)."""
    distinct = [to_graph(t) for t in draw(st.lists(trees(), min_size=1, max_size=4))]
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=5))
    graphs = [distinct[i] for i in picks]
    counts = draw(st.lists(st.integers(0, 3), min_size=len(graphs), max_size=len(graphs)))
    if not any(counts):
        counts[0] = 1
    return graphs, counts


def make_units(seed: int, dtype) -> dict:
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(seed + 1)
    data_size = int(shape.integers(1, 4))
    return {
        ltype: NeuralUnit(
            ltype,
            feature_size=int(shape.integers(1, 5)),
            data_size=data_size,
            hidden_layers=int(shape.integers(0, 3)),
            neurons=int(shape.integers(3, 7)),
            rng=rng,
            dtype=dtype,
        )
        for ltype in TYPES
    }


def draw_inputs(graphs, counts, units, seed: int):
    rng = np.random.default_rng(seed)
    features = [
        [rng.standard_normal((b, units[t].feature_size)) for t in g.types]
        for g, b in zip(graphs, counts)
    ]
    labels = [rng.standard_normal((b, g.n_nodes)) for g, b in zip(graphs, counts)]
    return features, labels


def param_grads(units) -> dict:
    return {
        (ltype, name): (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for ltype, unit in units.items()
        for name, p in unit.named_parameters()
    }


def taped(graphs, counts, units, features, labels):
    """Per-structure taped forward, Eq. 7 mse, autodiff backward."""
    for unit in units.values():
        unit.zero_grad()
    total_ops = sum(b * g.n_nodes for g, b in zip(graphs, counts))
    outputs, total = {}, None
    for gi, (graph, b) in enumerate(zip(graphs, counts)):
        if not b:
            continue
        out = CompiledSchedule(graph, units).run_training(features[gi])
        for pos in range(graph.n_nodes):
            outputs[(gi, pos)] = out[pos].data.copy()
            diff = out[pos][:, :1] - nn.Tensor(labels[gi][:, pos : pos + 1])
            term = (diff * diff).sum()
            total = term if total is None else total + term
    (total * (1.0 / total_ops)).backward()
    return outputs, param_grads(units)


def row_order(plan, columns):
    """Per-structure ``(B, n_nodes)`` values laid out in ``plan``'s rows."""
    out = np.empty(plan.n_rows)
    for gi, matrix in enumerate(columns):
        for pos in range(matrix.shape[1]):
            out[plan.node_rows(gi, pos)] = matrix[:, pos]
    return out


def fused(graphs, counts, units, features, labels):
    """The LevelPlan forward, the trainer's fused loss, and backward."""
    for unit in units.values():
        unit.zero_grad()
    plan = LevelPlan(graphs, counts, units)
    dtype = plan.dtype
    run = plan.forward_training(
        plan.stack_positions([[f.astype(dtype) for f in per] for per in features])
    )
    diff = run.out[:, 0] - row_order(plan, labels).astype(dtype)
    grads = plan.alloc_output_grads()
    np.multiply(diff, 2.0 / plan.n_rows, out=grads[:, 0])
    plan.backward(run, grads)
    outputs = {
        (gi, pos): run.out[plan.node_rows(gi, pos)]
        for gi, graph in enumerate(graphs)
        for pos in range(graph.n_nodes)
        if counts[gi]
    }
    return outputs, param_grads(units)


@given(batches(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_float64_matches_taped(batch, seed):
    graphs, counts = batch
    units = make_units(seed, np.float64)
    features, labels = draw_inputs(graphs, counts, units, seed)
    want_out, want_grads = taped(graphs, counts, units, features, labels)
    got_out, got_grads = fused(graphs, counts, units, features, labels)
    assert got_out.keys() == want_out.keys()
    for key, value in want_out.items():
        assert np.max(np.abs(got_out[key] - value), initial=0.0) <= 1e-9
    for key, value in want_grads.items():
        assert np.max(np.abs(got_grads[key] - value), initial=0.0) <= 1e-9


@given(batches(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_float32_tracks_float64_reference(batch, seed):
    graphs, counts = batch
    units64 = make_units(seed, np.float64)
    units32 = make_units(seed, np.float32)
    features, labels = draw_inputs(graphs, counts, units64, seed)
    want_out, want_grads = taped(graphs, counts, units64, features, labels)
    got_out, got_grads = fused(graphs, counts, units32, features, labels)
    scale = max([1.0] + [float(np.max(np.abs(v), initial=0.0)) for v in want_out.values()])
    for key, value in want_out.items():
        assert got_out[key].dtype == np.float32
        assert np.max(np.abs(got_out[key] - value), initial=0.0) <= 1e-4 * scale
    for key, value in want_grads.items():
        bound = 1e-4 * max(1.0, float(np.max(np.abs(value), initial=0.0)))
        assert np.max(np.abs(got_grads[key] - value), initial=0.0) <= bound


@pytest.mark.parametrize("n_kids", [0, 1])
def test_join_with_missing_children_reads_zero_rows(n_kids):
    """A binary unit with fewer children than its arity sees zero padding
    in the missing slots, exactly as the taped ``assemble_input`` pads."""
    tree = (LogicalType.JOIN, [(LogicalType.SCAN, [])] * n_kids)
    graph = to_graph((LogicalType.SORT, [tree]))
    units = make_units(7, np.float64)
    features, labels = draw_inputs([graph], [3], units, 7)
    want_out, want_grads = taped([graph], [3], units, features, labels)
    got_out, got_grads = fused([graph], [3], units, features, labels)
    for key, value in want_out.items():
        assert np.max(np.abs(got_out[key] - value)) <= 1e-9
    for key, value in want_grads.items():
        assert np.max(np.abs(got_grads[key] - value), initial=0.0) <= 1e-9
