"""The level-fused (tape-free) training engine vs. the taped reference.

The cross-structure ``LevelPlan`` behind the trainer's ``fused`` engine
must compute the *same* gradients as the taped autodiff it replaces.
These tests pin that equivalence at <= 1e-9 (including a property-style
sweep over random plan structures and depths) and check both engines
end to end.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    BufferPool,
    CompiledSchedule,
    CorpusBatch,
    LevelPlan,
    PlanGraph,
    PreGroupedCorpus,
    QPPNet,
    QPPNetConfig,
    StructureGroup,
    Trainer,
    group_by_structure,
    vectorize_corpus,
)
from repro.core.unit import NeuralUnit
from repro.featurize import Featurizer
from repro.nn.gradcheck import numerical_gradient
from repro.plans.operators import LogicalType
from repro.workload import Workbench

GRAD_TOL = 1e-9


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", seed=0).generate(32, rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return Featurizer().fit([s.plan for s in corpus])


def tiny_config(**overrides):
    base = dict(hidden_layers=2, neurons=10, data_size=4, epochs=3, batch_size=16, seed=0)
    base.update(overrides)
    return QPPNetConfig(**base)


def _grad_snapshot(model):
    return {
        name: (None if p.grad is None else p.grad.copy())
        for name, p in model.named_parameters()
    }


def _max_grad_diff(model, reference):
    worst = 0.0
    for name, param in model.named_parameters():
        a = reference[name]
        b = param.grad
        a = a if a is not None else np.zeros_like(param.data)
        b = b if b is not None else np.zeros_like(param.data)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


class TestGradientEquivalence:
    @pytest.mark.parametrize("loss", ["mse", "rmse"])
    def test_fused_matches_taped(self, corpus, featurizer, loss):
        """The cross-structure level-fused engine computes the taped loss
        and gradients (one matmul per unit type per depth or not)."""
        config = tiny_config(loss=loss)
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus, featurizer)

        model.zero_grad()
        taped_loss = trainer.batch_loss(vec)
        taped_loss.backward()
        taped = _grad_snapshot(model)

        model.zero_grad()
        fused_loss = trainer.fused_loss_backward(group_by_structure(vec))

        assert abs(taped_loss.item() - fused_loss) <= GRAD_TOL
        assert _max_grad_diff(model, taped) <= GRAD_TOL

    def test_tape_free_matches_taped_with_flat_binding(self, corpus, featurizer):
        """Equivalence must also hold when grads land in flat-space views."""
        config = tiny_config()
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus, featurizer)

        model.zero_grad()
        trainer.batch_loss(vec).backward()
        taped = _grad_snapshot(model)

        flat = trainer._ensure_flat()
        flat.zero_grad()
        trainer.fused_loss_backward(group_by_structure(vec))
        assert _max_grad_diff(model, taped) <= GRAD_TOL

    def test_fused_padded_batch_matches_subset(self, corpus, featurizer):
        """Zero-row groups (structures absent from a batch, padded in)
        must not change the loss or any gradient."""
        config = tiny_config()
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec)
        subset = group_by_structure(vec[::3])
        present = {g.graph.signature: g for g in subset}
        padded = [
            present.get(
                g.graph.signature,
                StructureGroup(g.graph, [f[:0] for f in g.features], g.labels[:0]),
            )
            for g in pre.groups
        ]
        assert len(padded) == pre.n_structures
        assert len(subset) < len(padded)  # some structures really absent
        assert any(g.n_plans == 0 for g in padded)

        model.zero_grad()
        subset_loss = trainer.fused_loss_backward(subset)
        reference = _grad_snapshot(model)

        model.zero_grad()
        padded_loss = trainer.fused_loss_backward(padded)
        assert abs(subset_loss - padded_loss) <= GRAD_TOL
        assert _max_grad_diff(model, reference) <= GRAD_TOL

    def test_fused_fit_compiles_one_level_plan(self, corpus, featurizer):
        """Small random batches mix structures differently every step, yet
        each structure's level arrays are built once for the whole fit;
        every later batch compiles from the cache."""
        config = tiny_config(epochs=2, batch_size=4)
        model = QPPNet(featurizer, config)
        Trainer(model, config).fit(corpus)
        structures = {s.plan.structure_signature() for s in corpus}
        assert model.level_plans.misses == len(model.level_plans) == len(structures)
        assert model.level_plans.hits > 0

    def test_backward_rejects_foreign_seed_buffers(self, corpus, featurizer):
        """LevelPlan.backward takes only a seed shaped like its own run's
        outputs, and only a run its own forward produced."""
        config = tiny_config()
        model = QPPNet(featurizer, config)
        groups = group_by_structure(vectorize_corpus(corpus, featurizer))
        plans = [
            model.compile_level_plan([g.graph for g in part], [g.n_plans for g in part])
            for part in (groups, groups[:1])
        ]
        runs = [
            plan.forward_training(plan.stack_positions([g.features for g in part]))
            for plan, part in zip(plans, (groups, groups[:1]))
        ]
        plan, run = plans[0], runs[0]
        with pytest.raises(ValueError):
            plan.backward(run, plan.alloc_output_grads()[1:])  # wrong shape
        with pytest.raises(ValueError):
            plan.backward(runs[1], plan.alloc_output_grads())  # another plan's run
        with pytest.raises(ValueError):
            plans[1].backward(run, plans[1].alloc_output_grads())

    def test_compiled_gradients_match_numerical(self, corpus, featurizer):
        """gradcheck the fused path itself against central differences."""
        config = tiny_config(hidden_layers=1, neurons=6, data_size=2)
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        groups = group_by_structure(vectorize_corpus(corpus[:4], featurizer))

        def loss_fn():
            return nn.Tensor(np.array(trainer.fused_loss_backward(groups)))

        model.zero_grad()
        trainer.fused_loss_backward(groups)
        # Snapshot before probing: every loss_fn() call accumulates
        # another backward pass into param.grad.
        analytic = _grad_snapshot(model)
        rng = np.random.default_rng(1)
        checked = 0
        for name, param in model.named_parameters():
            if rng.random() < 0.25 and checked < 4:
                numeric = numerical_gradient(loss_fn, param, eps=1e-6)
                actual = analytic[name]
                actual = actual if actual is not None else np.zeros_like(param.data)
                assert np.allclose(actual, numeric, atol=1e-4, rtol=1e-3)
                checked += 1
        assert checked > 0

    def test_leaf_fusion_present(self, corpus, featurizer):
        """The workload has multi-scan plans, so level-0 fusion must engage
        (the generalization of the former FusedLeafGroup: leaves are just
        depth-0 level steps)."""
        config = tiny_config()
        model = QPPNet(featurizer, config)
        vec = vectorize_corpus(corpus, featurizer)
        multi_scan = next(
            p for p in vec
            if sum(1 for t, kids in zip(p.graph.types, p.graph.children)
                   if not kids) >= 2
        )
        plan = model.compile_level_plan([multi_scan.graph], [1])

        def positions(step):
            return [int(plan.node_pos[n]) for n in plan.order[step.node_lo : step.node_hi]]

        leaf_steps = [s for s in plan.steps if s.level == 0]
        assert any(len(positions(s)) >= 2 for s in leaf_steps)
        # Every position belongs to exactly one level step.
        seen = [pos for s in plan.steps for pos in positions(s)]
        assert sorted(seen) == list(range(multi_scan.graph.n_nodes))
        # Leaves are exactly the level-0 positions.
        leaves = {pos for pos, kids in enumerate(multi_scan.graph.children) if not kids}
        assert {pos for s in leaf_steps for pos in positions(s)} == leaves


_UNARY_TYPES = (
    LogicalType.SORT,
    LogicalType.HASH,
    LogicalType.AGGREGATE,
    LogicalType.MATERIALIZE,
    LogicalType.LIMIT,
)


def _random_graph(rng: np.random.Generator, max_depth: int) -> PlanGraph:
    """A random plan tree in preorder, honouring each type's arity."""
    types: list[LogicalType] = []
    children: list[tuple[int, ...]] = []

    def build(depth: int) -> int:
        idx = len(types)
        types.append(LogicalType.SCAN)
        children.append(())
        if depth >= max_depth or rng.random() < 0.35:
            return idx  # leaf scan
        if rng.random() < 0.45:
            types[idx] = LogicalType.JOIN
            children[idx] = (build(depth + 1), build(depth + 1))
        else:
            types[idx] = _UNARY_TYPES[int(rng.integers(len(_UNARY_TYPES)))]
            children[idx] = (build(depth + 1),)
        return idx

    build(0)
    post: list[int] = []

    def walk(idx: int) -> None:
        for child in children[idx]:
            walk(child)
        post.append(idx)

    walk(0)
    signature = repr([(t.value, kids) for t, kids in zip(types, children)])
    return PlanGraph(signature, tuple(types), tuple(children), tuple(post))


class TestRandomStructureEquivalence:
    """Property-style sweep over random plan structures, depths and batch
    sizes: the level-fused forward latencies and parameter gradients must
    match the taped reference at <= 1e-9."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fused_matches_taped_random_structures(self, seed):
        rng = np.random.default_rng(100 + seed)
        data_size = int(rng.integers(2, 5))
        units = {
            lt: NeuralUnit(
                lt,
                feature_size=int(rng.integers(1, 6)),
                data_size=data_size,
                hidden_layers=int(rng.integers(0, 3)),
                neurons=int(rng.integers(4, 9)),
                rng=rng,
            )
            for lt in LogicalType
        }
        graphs = [
            _random_graph(rng, max_depth=int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        counts = [int(rng.integers(1, 6)) for _ in graphs]
        features = [
            [rng.standard_normal((b, units[t].feature_size)) for t in g.types]
            for g, b in zip(graphs, counts)
        ]
        labels = [rng.standard_normal((b, g.n_nodes)) for g, b in zip(graphs, counts)]
        total_ops = sum(b * g.n_nodes for g, b in zip(graphs, counts))

        # Taped reference: per-group schedules, autodiff backward, the
        # trainer's mse objective.
        for unit in units.values():
            unit.zero_grad()
        total = None
        taped_forward = {}
        for gi, (graph, feats, labs) in enumerate(zip(graphs, features, labels)):
            outputs = CompiledSchedule(graph, units).run_training(feats)
            for pos in range(graph.n_nodes):
                taped_forward[(gi, pos)] = outputs[pos].data.copy()
                diff = outputs[pos][:, :1] - nn.Tensor(labs[:, pos : pos + 1])
                term = (diff * diff).sum()
                total = term if total is None else total + term
        taped_loss = total * (1.0 / total_ops)
        taped_loss.backward()
        taped_grads = {
            (lt, name): (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for lt, unit in units.items()
            for name, p in unit.named_parameters()
        }

        # Level-fused: one stacked forward/backward across all graphs.
        for unit in units.values():
            unit.zero_grad()
        batch = CorpusBatch.of_groups(
            [StructureGroup(*group) for group in zip(graphs, features, labels)],
            np.float64,
        )
        plan = LevelPlan(batch.graphs, batch.counts, units)
        batch_features, flat_labels = batch.take(plan)
        run = plan.forward_training(batch_features)
        diff = run.out[:, 0] - flat_labels
        fused_loss = float(diff @ diff) / total_ops
        grads = plan.alloc_output_grads()
        np.multiply(diff, 2.0 / total_ops, out=grads[:, 0])
        plan.backward(run, grads)

        assert abs(taped_loss.item() - fused_loss) <= GRAD_TOL
        for gi, graph in enumerate(graphs):
            for pos in range(graph.n_nodes):
                fused_out = run.out[plan.node_rows(gi, pos)]
                assert np.max(np.abs(fused_out - taped_forward[(gi, pos)])) <= GRAD_TOL
        worst = max(
            float(np.max(np.abs(taped_grads[(lt, name)] - (
                p.grad if p.grad is not None else np.zeros_like(p.data)
            ))))
            for lt, unit in units.items()
            for name, p in unit.named_parameters()
        )
        assert worst <= GRAD_TOL


class TestDtypeTiers:
    """float32 compute vs the float64 reference (ISSUE 5 tentpole guard).

    A float32 model built from the same seed draws the same init (cast
    once), so its losses, gradients and predictions must *track* the
    float64 reference — equality up to float32 rounding, property-tested
    across the same random-structure space as the fused-vs-taped sweep.
    """

    # float32 has ~1e-7 relative rounding per op; these nets are a few
    # matmuls deep, so 1e-4 relative is a comfortable-but-meaningful bar
    # (and the serving acceptance bar from the issue).
    REL_TOL = 1e-4

    @staticmethod
    def _unit_pair(rng_seed):
        """Structurally identical float64/float32 unit sets, same draws."""
        units = {}
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(rng_seed)
            units[dtype] = {
                lt: NeuralUnit(
                    lt,
                    feature_size=3,
                    data_size=4,
                    hidden_layers=2,
                    neurons=8,
                    rng=rng,
                    dtype=dtype,
                )
                for lt in LogicalType
            }
        return units[np.float64], units[np.float32]

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_float32_tracks_float64_random_structures(self, seed):
        """Gradients and predictions of the float32 fused engine agree
        with the float64 run to float32 rounding, over random structures,
        depths and batch sizes."""
        rng = np.random.default_rng(300 + seed)
        units64, units32 = self._unit_pair(200 + seed)
        graphs = [
            _random_graph(rng, max_depth=int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        counts = [int(rng.integers(1, 6)) for _ in graphs]
        features64 = [
            [rng.standard_normal((b, 3)) for _ in g.types]
            for g, b in zip(graphs, counts)
        ]
        features32 = [[f.astype(np.float32) for f in per] for per in features64]
        labels64 = [rng.standard_normal((b, g.n_nodes)) for g, b in zip(graphs, counts)]
        labels32 = [m.astype(np.float32) for m in labels64]
        total_ops = sum(b * g.n_nodes for g, b in zip(graphs, counts))

        def run(units, features, labels):
            batch = CorpusBatch.of_groups(
                [StructureGroup(*group) for group in zip(graphs, features, labels)],
                features[0][0].dtype,
            )
            plan = LevelPlan(batch.graphs, batch.counts, units)
            batch_features, flat_labels = batch.take(plan)
            run = plan.forward_training(batch_features)
            diff = run.out[:, 0] - flat_labels
            loss = float(diff @ diff) / total_ops
            grads = plan.alloc_output_grads()
            np.multiply(diff, 2.0 / total_ops, out=grads[:, 0])
            plan.backward(run, grads)
            out = run.out.copy()
            param_grads = {
                (lt, name): p.grad.copy()
                for lt, unit in units.items()
                for name, p in unit.named_parameters()
                if p.grad is not None
            }
            return loss, out, param_grads

        loss64, out64, grads64 = run(units64, features64, labels64)
        loss32, out32, grads32 = run(units32, features32, labels32)

        assert out32.dtype == np.float32 and out64.dtype == np.float64
        assert abs(loss32 - loss64) <= self.REL_TOL * max(1.0, abs(loss64))
        assert np.max(np.abs(out32 - out64)) <= self.REL_TOL * max(
            1.0, float(np.max(np.abs(out64)))
        )
        assert set(grads32) == set(grads64)
        for key, g64 in grads64.items():
            g32 = grads32[key]
            assert g32.dtype == np.float32
            scale = max(1.0, float(np.max(np.abs(g64))))
            assert np.max(np.abs(g32 - g64)) <= 1e-3 * scale

    def test_float32_fit_tracks_float64_loss_curve(self, corpus, featurizer):
        """End-to-end training (fused engine, same seed, same batches):
        the float32 loss curve must track the float64 reference epoch for
        epoch.  Momentum accumulates rounding across steps, so the bar is
        looser than the single-step one but still tight."""

        def run(dtype):
            config = tiny_config(epochs=4, dtype=dtype)
            model = QPPNet(featurizer, config)
            history = Trainer(model, config).fit(corpus)
            return history.train_loss

        ref = run("float64")
        f32 = run("float32")
        assert f32 == pytest.approx(ref, rel=5e-3)
        # And it actually trains.
        assert f32[-1] < f32[0]

    def test_float32_hot_path_has_no_float64_buffers(self, corpus, featurizer):
        """The acceptance bar: assembly, matmul outputs, loss seeds,
        flat parameter/gradient storage and optimizer state are all
        float32 when the config says float32."""
        config = tiny_config(epochs=1, dtype="float32")
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus, featurizer)
        trainer.fit_vectorized(vec, epochs=1)

        flat = trainer._flat
        assert flat is not None
        assert flat.data.dtype == np.float32 and flat.grad.dtype == np.float32
        assert trainer.optimizer._flat_velocity.dtype == np.float32
        for param in model.parameters():
            assert param.data.dtype == np.float32
            assert param.grad.dtype == np.float32
        assert len(model.level_plans), "fused fit must have compiled level plans"
        # One fused step's buffers: per-type features, labels, outputs,
        # gradient seeds.
        pre = PreGroupedCorpus(vec, dtype=np.float32)
        batch = pre.batch(np.arange(len(vec)), pool=trainer._stack_pool)
        plan = model.compile_level_plan(batch.graphs, batch.counts)
        assert plan.dtype == np.float32
        features, labels = batch.take(plan)
        assert labels.dtype == np.float32
        assert all(f.dtype == np.float32 for f in features.values())
        run = plan.forward_training(features)
        assert run.out.dtype == np.float32
        assert plan.alloc_output_grads().dtype == np.float32
        # The trainer's stacking pool feeds batches in compute dtype.
        assert trainer._stack_pool._buffers
        for buffer in trainer._stack_pool._buffers.values():
            assert buffer.dtype == np.float32

    def test_pre_grouped_corpus_carries_dtype(self, corpus, featurizer):
        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec, dtype=np.float32)
        assert pre.dtype == np.float32
        for group in pre.groups:
            assert group.labels.dtype == np.float32
            assert all(f.dtype == np.float32 for f in group.features)
        batch = pre.batch(np.arange(min(8, len(vec))))
        model = QPPNet(featurizer, tiny_config(dtype="float32"))
        features, labels = batch.take(model.compile_level_plan(batch.graphs, batch.counts))
        assert labels.dtype == np.float32
        assert all(f.dtype == np.float32 for f in features.values())

    @pytest.mark.parametrize("mode", ["naive", "info_sharing"])
    def test_ablation_modes_honour_dtype(self, corpus, featurizer, mode):
        """The per-plan ablation modes bypass the stacking pool, so they
        must cast features/labels themselves — a float32 model's taped
        loss and gradients stay float32 in every mode."""
        config = tiny_config(mode=mode, dtype="float32", batch_size=4)
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus[:4], featurizer)
        loss = trainer.batch_loss(vec)
        assert loss.data.dtype == np.float32
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and all(g.dtype == np.float32 for g in grads)

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            tiny_config(dtype="float16")

    def test_mixed_dtype_units_rejected_by_level_plan(self):
        """A plan whose positions resolve to units of different dtypes
        must be rejected at compile time, not promote silently."""
        rng = np.random.default_rng(0)
        # JOIN(SCAN, SCAN) in preorder: two unit types, guaranteed mixed.
        graph = PlanGraph(
            "join(scan,scan)",
            (LogicalType.JOIN, LogicalType.SCAN, LogicalType.SCAN),
            ((1, 2), (), ()),
            (1, 2, 0),
        )
        units = {
            LogicalType.JOIN: NeuralUnit(
                LogicalType.JOIN, 3, 4, 1, 4, rng=rng, dtype=np.float64
            ),
            LogicalType.SCAN: NeuralUnit(
                LogicalType.SCAN, 3, 4, 1, 4, rng=rng, dtype=np.float32
            ),
        }
        with pytest.raises(ValueError, match="dtype"):
            LevelPlan([graph], (1,), units)


def _assert_take_matches(model, batch, groups):
    """``batch.take`` equals the per-structure ``groups`` laid out by the
    batch's level plan: features via ``stack_positions``, labels by row."""
    assert [g.graph.signature for g in groups] == [g.signature for g in batch.graphs]
    plan = model.compile_level_plan(batch.graphs, batch.counts)
    features, labels = batch.take(plan)
    stacked = plan.stack_positions([g.features for g in groups])
    assert features.keys() == stacked.keys()
    for ltype, matrix in features.items():
        assert np.array_equal(matrix, stacked[ltype])
    for gi, group in enumerate(groups):
        for pos in range(group.graph.n_nodes):
            assert np.array_equal(labels[plan.node_rows(gi, pos)], group.labels[:, pos])


class TestPreGroupedCorpus:
    def test_gather_matches_group_by_structure(self, corpus, featurizer):
        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec)
        idx = np.random.default_rng(3).permutation(len(vec))[:20]
        reference = group_by_structure([vec[i] for i in idx])
        _assert_take_matches(QPPNet(featurizer, tiny_config()), pre.batch(idx), reference)

    def test_batches_partition_corpus(self, corpus, featurizer):
        """Every plan lands in exactly one batch of an epoch."""
        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec)
        rng = np.random.default_rng(0)
        seen = []
        for batch in pre.iter_batches(10, rng):
            assert sum(batch.counts) == batch.n_plans <= 10
            per_group = np.split(batch.rows, np.cumsum(batch.counts)[:-1])
            for gid, rows in zip(batch.group_ids.tolist(), per_group):
                seen.extend((gid, row) for row in rows.tolist())
        assert sorted(seen) == [
            (gid, row) for gid, group in enumerate(pre.groups) for row in range(group.n_plans)
        ]

    def test_pooled_gather_equals_unpooled(self, corpus, featurizer):
        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec)
        idx = np.arange(min(12, len(vec)))
        pool = BufferPool()
        unpooled, pooled = pre.batch(idx), pre.batch(idx, pool=pool)
        plan = QPPNet(featurizer, tiny_config()).compile_level_plan(
            unpooled.graphs, unpooled.counts
        )
        want_features, want_labels = unpooled.take(plan)
        got_features, got_labels = pooled.take(plan)
        assert len(pool)
        assert np.array_equal(got_labels, want_labels)
        assert got_features.keys() == want_features.keys()
        for ltype, matrix in want_features.items():
            assert np.array_equal(got_features[ltype], matrix)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            PreGroupedCorpus([])


class TestCompiledFit:
    def test_engine_selection(self, featurizer):
        config = tiny_config(mode="both")  # default engine
        trainer = Trainer(QPPNet(featurizer, config), config)
        assert trainer.execution_engine == "fused"
        assert trainer.uses_compiled_engine
        config = tiny_config(mode="both", engine="taped")
        trainer = Trainer(QPPNet(featurizer, config), config)
        assert trainer.execution_engine == "taped"
        assert not trainer.uses_compiled_engine
        # Ablation modes always run taped, whatever the engine says.
        for mode in ("naive", "batching", "info_sharing"):
            config = tiny_config(mode=mode)
            trainer = Trainer(QPPNet(featurizer, config), config)
            assert trainer.execution_engine == "taped"
            assert not trainer.uses_compiled_engine

    def test_invalid_engine_rejected(self):
        for engine in ("jit", "compiled"):
            with pytest.raises(ValueError):
                tiny_config(engine=engine)

    def test_compiled_fit_reduces_loss(self, corpus, featurizer):
        config = tiny_config(epochs=5)
        model = QPPNet(featurizer, config)
        history = Trainer(model, config).fit(corpus)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_engines_same_trajectory_full_batch(self, corpus, featurizer):
        """With full-corpus batches every unit is used every step, where
        the loop and fused optimizer semantics coincide — both engines
        must then produce near-identical training trajectories."""

        def run(engine):
            config = tiny_config(epochs=4, batch_size=len(corpus), engine=engine)
            model = QPPNet(featurizer, config)
            history = Trainer(model, config).fit(corpus)
            return history.train_loss

        assert run("taped") == pytest.approx(run("fused"), rel=1e-6)

    def test_compiled_fit_with_lr_decay_and_adam(self, corpus, featurizer):
        config = tiny_config(optimizer="adam", lr_decay_every=1, lr_decay_gamma=0.5, epochs=2)
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        trainer.fit(corpus[:8])
        assert trainer.optimizer.lr == pytest.approx(0.001 * 0.25)

    def test_predictions_after_compiled_fit(self, corpus, featurizer):
        config = tiny_config(epochs=2)
        model = QPPNet(featurizer, config)
        Trainer(model, config).fit(corpus[:16])
        pred = model.predict(corpus[0].plan)
        assert np.isfinite(pred) and pred > 0
