"""LevelPlan: type-major cross-structure level-fused execution.

Structural properties of the compiler (one step per unit type per tree
depth, contiguous output blocks, child index arrays, per-structure
memoization), equivalence of the fused forward with the per-group
schedules, and the LRU bounds on the structure cache and serving
buffers.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    BufferPool,
    CompiledSchedule,
    CorpusBatch,
    LevelPlan,
    LevelPlanCache,
    QPPNet,
    QPPNetConfig,
    group_by_structure,
    vectorize_corpus,
)
from repro.featurize import Featurizer
from repro.workload import Workbench


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", seed=0).generate(48, rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return Featurizer().fit([s.plan for s in corpus])


@pytest.fixture(scope="module")
def model(corpus, featurizer):
    config = QPPNetConfig(hidden_layers=2, neurons=12, data_size=4)
    return QPPNet(featurizer, config)


@pytest.fixture(scope="module")
def groups(corpus, featurizer):
    return group_by_structure(vectorize_corpus(corpus, featurizer))


def _plan(model, groups, counts=None):
    counts = [g.n_plans for g in groups] if counts is None else counts
    return LevelPlan([g.graph for g in groups], counts, model.units)


class TestCompiler:
    def test_one_step_per_unit_type_per_depth(self, model, groups):
        plan = _plan(model, groups)
        keys = [(s.level, s.unit.logical_type) for s in plan.steps]
        assert len(keys) == len(set(keys)), "duplicate (depth, unit) step"
        # Every (graph, position) appears in exactly one step.
        seen = sorted(n for s in plan.steps for n in plan.order[s.node_lo : s.node_hi])
        assert seen == list(range(len(plan.node_graph)))
        assert len(plan.node_graph) == sum(g.graph.n_nodes for g in groups)
        for step in plan.steps:
            for node in plan.order[step.node_lo : step.node_hi]:
                graph = groups[plan.node_graph[node]].graph
                assert graph.types[plan.node_pos[node]] is step.unit.logical_type
                assert graph.heights[plan.node_pos[node]] == step.level

    def test_fusion_reduces_unit_calls(self, model, groups):
        """Cross-group fusion must need far fewer unit calls than one per
        (group, position) — that reduction IS the tentpole speedup."""
        plan = _plan(model, groups)
        per_group_calls = sum(g.graph.n_nodes for g in groups)
        assert len(groups) > 1
        assert plan.n_steps < per_group_calls

    def test_children_always_in_earlier_steps(self, model, groups):
        """Each child slot's index array reads exactly the child's rows,
        and those rows belong to earlier steps."""
        plan = _plan(model, groups)
        for step in plan.steps:
            for node in plan.order[step.node_lo : step.node_hi]:
                gi, pos = plan.node_graph[node], plan.node_pos[node]
                kids = groups[gi].graph.children[pos]
                rows = plan.node_rows(gi, pos)
                for slot in range(step.unit.arity if step.level else 0):
                    got = plan.child_rows[slot, rows]
                    if slot < len(kids):
                        child = plan.node_rows(gi, kids[slot])
                        assert list(got) == list(range(child.start, child.stop))
                        assert child.stop <= step.lo
                    else:
                        assert np.all(got == plan.n_rows)  # the zero row

    def test_layout_blocks_are_contiguous(self, model, groups):
        plan = _plan(model, groups)
        counts = [g.n_plans for g in groups]
        assert plan.n_rows == sum(c * g.graph.n_nodes for c, g in zip(counts, groups))
        offset = 0
        type_rows = {}
        for step in plan.steps:
            assert step.lo == offset
            assert step.feature_lo == type_rows.get(step.unit.logical_type, 0)
            for node in plan.order[step.node_lo : step.node_hi]:
                rows = plan.node_rows(plan.node_graph[node], plan.node_pos[node])
                assert rows.start == offset
                assert rows.stop - rows.start == counts[plan.node_graph[node]]
                offset = rows.stop
            assert step.hi == offset
            type_rows[step.unit.logical_type] = (
                type_rows.get(step.unit.logical_type, 0) + step.hi - step.lo
            )
        assert offset == plan.n_rows
        assert type_rows == plan.type_rows

    def test_layout_is_memoized_and_bounded(self, model, groups):
        """Per-structure arrays are built once per signature (bounded LRU),
        and a schedule memoizes its per-batch-size plans (bounded)."""
        cache = LevelPlanCache(maxsize=2)
        first = cache.levels(groups[0].graph)
        assert cache.levels(groups[0].graph) is first
        for group in groups[:5]:
            cache.levels(group.graph)
        assert len(cache) <= 2
        schedule = CompiledSchedule(groups[0].graph, model.units)
        plan = schedule.level_plan(7)
        assert schedule.level_plan(7) is plan
        for batch in range(1, schedule.MAX_CACHED_PLANS + 5):
            schedule.level_plan(batch)
        assert len(schedule._plans) <= schedule.MAX_CACHED_PLANS

    def test_invalid_inputs_rejected(self, model, groups):
        with pytest.raises(ValueError):
            LevelPlan([], [], model.units)
        with pytest.raises(ValueError):
            LevelPlan([groups[0].graph], (1, 2), model.units)  # wrong count
        with pytest.raises(ValueError):
            LevelPlan([groups[0].graph], (-1,), model.units)  # negative size
        plan = _plan(model, groups[:1])
        features = plan.stack_positions([groups[0].features])
        run = plan.forward_inference(features)
        with pytest.raises(ValueError):
            plan.backward(run, np.zeros_like(run.out))  # inference run has no tape
        ltype = next(iter(features))
        bad = dict(features, **{ltype: features[ltype][:, :-1]})
        with pytest.raises(ValueError, match=ltype.value):
            plan.forward_inference(bad)  # wrong feature width

    def test_zero_count_groups_are_noops(self, model, groups):
        """A zero-row group must not disturb the others."""
        assert len(groups) >= 3
        plan = _plan(model, groups)
        full = plan.forward_inference(plan.stack_positions([g.features for g in groups]))
        full_by_node = {
            (gi, pos): full.out[plan.node_rows(gi, pos)].copy()
            for gi, g in enumerate(groups)
            for pos in range(g.graph.n_nodes)
        }
        zeroed = 1
        counts = [g.n_plans for g in groups]
        counts[zeroed] = 0
        features = [g.features for g in groups]
        features[zeroed] = [f[:0] for f in groups[zeroed].features]
        sparse = _plan(model, groups, counts)
        run = sparse.forward_inference(sparse.stack_positions(features))
        assert run.out.shape[0] < full.out.shape[0]
        for gi, group in enumerate(groups):
            for pos in range(group.graph.n_nodes):
                got = run.out[sparse.node_rows(gi, pos)]
                if gi == zeroed:
                    assert got.shape[0] == 0
                else:
                    assert np.max(np.abs(got - full_by_node[(gi, pos)])) <= 1e-9


class TestFusedForwardEquivalence:
    def test_matches_per_group_schedules(self, model, groups):
        """The fused whole-batch forward equals running every group through
        its own compiled schedule (taped), position by position."""
        plan = _plan(model, groups)
        run = plan.forward_inference(plan.stack_positions([g.features for g in groups]))
        for gi, group in enumerate(groups):
            reference = model.compile_schedule(group.graph).run_training(group.features)
            for pos in range(group.graph.n_nodes):
                fused = run.out[plan.node_rows(gi, pos)]
                assert np.max(np.abs(fused - reference[pos].data)) <= 1e-9

    def test_training_forward_matches_inference(self, model, groups):
        plan = _plan(model, groups)
        features = plan.stack_positions([g.features for g in groups])
        inference = plan.forward_inference(features).out.copy()
        training = plan.forward_training(features)
        assert training.tapes is not None and len(training.tapes) == plan.n_steps
        assert np.array_equal(training.out, inference)

    def test_gather_node_columns_roundtrip(self, model, groups):
        """A batch's one-take-per-type gather lines every node's labels
        and features up with its rows of the plan."""
        batch = CorpusBatch.of_groups(groups, np.float64)
        plan = model.compile_level_plan(batch.graphs, batch.counts)
        features, labels = batch.take(plan)
        stacked = plan.stack_positions([g.features for g in groups])
        assert features.keys() == stacked.keys()
        for ltype, matrix in features.items():
            assert np.array_equal(matrix, stacked[ltype])
        for gi, group in enumerate(groups):
            for pos in range(group.graph.n_nodes):
                rows = plan.node_rows(gi, pos)
                assert np.array_equal(labels[rows], group.labels[:, pos])


class TestLevelPlanCache:
    def test_hit_and_identity(self, model, groups):
        cache = LevelPlanCache()
        graphs = [g.graph for g in groups]
        first = cache.levels(graphs[0])
        assert cache.levels(graphs[0]) is first
        assert (cache.hits, cache.misses) == (1, 1)
        for graph in graphs:
            cache.levels(graph)
        assert (cache.hits, cache.misses) == (2, len(graphs))
        model.level_plans.clear()
        plan = model.compile_level_plan(graphs, [g.n_plans for g in groups])
        assert plan.n_rows == sum(g.n_plans * g.graph.n_nodes for g in groups)
        assert (model.level_plans.hits, model.level_plans.misses) == (0, len(graphs))

    def test_lru_eviction(self, model, groups):
        assert len(groups) >= 3
        cache = LevelPlanCache(maxsize=2)
        a = cache.levels(groups[0].graph)
        cache.levels(groups[1].graph)
        cache.levels(groups[2].graph)  # evicts the first
        assert len(cache) == 2
        assert cache.levels(groups[0].graph) is not a  # rebuilt

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LevelPlanCache(maxsize=0)


class TestBoundedBuffers:
    def test_buffer_pool_eviction_frees_entries(self):
        pool = BufferPool(max_entries=4)
        kept = [pool.take(("k", i), (3, 2)) for i in range(10)]
        assert len(pool) == 4
        assert set(pool._buffers) == {("k", i) for i in range(6, 10)}
        # Evicted buffers stay valid for live references (refcounting).
        kept[0][:] = 1.0
        assert np.all(kept[0] == 1.0)

    def test_session_pool_is_bounded(self, model, corpus):
        from repro.serving import InferenceSession

        session = InferenceSession(model, max_pooled_buffers=3)
        session.predict_batch([s.plan for s in corpus])
        assert len(session._pool) <= 3
        # Default sessions are bounded too (LRU-evicting, not unbounded).
        default = InferenceSession(model)
        assert default._pool.max_entries == InferenceSession.MAX_POOLED_BUFFERS

    def test_bounded_session_results_unchanged(self, model, corpus):
        from repro.serving import InferenceSession

        plans = [s.plan for s in corpus]
        tight = InferenceSession(model, max_pooled_buffers=2).predict_batch(plans)
        roomy = InferenceSession(model).predict_batch(plans)
        assert np.array_equal(tight, roomy)
