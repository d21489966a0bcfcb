"""Property tests for the §5.1.1 batching layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    QPPNet,
    QPPNetConfig,
    group_by_structure,
    plan_graph,
    sample_batches,
    vectorize_corpus,
)
from repro.featurize import Featurizer
from repro.serving import InferenceSession
from repro.workload import Workbench


@pytest.fixture(scope="module")
def samples():
    wb = Workbench("tpch", seed=0)
    return wb.generate(44, rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def vectorized(samples):
    featurizer = Featurizer().fit([s.plan for s in samples])
    return vectorize_corpus(samples, featurizer)


@pytest.fixture(scope="module")
def bucket_plans(samples):
    """The serving tier's bucketing (an untrained model is enough),
    without the feature layout it pairs with each bucket."""
    featurizer = Featurizer().fit([s.plan for s in samples])
    session = InferenceSession(QPPNet(featurizer, QPPNetConfig()))
    return lambda plans: [bucket for bucket, _ in session._bucket(plans)]


class TestBucketPlans:
    """Composition of independently submitted plans (serving tier)."""

    def test_partition_and_arrival_order(self, samples, bucket_plans):
        plans = [s.plan for s in samples]
        buckets = bucket_plans(plans)
        seen = sorted(i for b in buckets for i in b.indices)
        assert seen == list(range(len(plans)))
        for bucket in buckets:
            assert bucket.indices == sorted(bucket.indices)  # arrival order
            assert bucket.n_plans == len(bucket.nodes)
            for index, nodes in zip(bucket.indices, bucket.nodes):
                assert nodes == list(plans[index].preorder())
                assert plans[index].structure_signature() == bucket.graph.signature

    def test_canonical_order_matches_group_by_structure(
        self, samples, vectorized, bucket_plans
    ):
        """Serving and training must resolve the same structure mix to the
        same (cached) level plan: identical signature order."""
        bucket_order = [b.graph.signature for b in bucket_plans([s.plan for s in samples])]
        group_order = [g.graph.signature for g in group_by_structure(vectorized)]
        assert bucket_order == group_order

    def test_empty(self, bucket_plans):
        assert bucket_plans([]) == []


class TestGrouping:
    def test_partition_exact(self, vectorized):
        groups = group_by_structure(vectorized)
        assert sum(g.n_plans for g in groups) == len(vectorized)

    def test_signatures_unique_across_groups(self, vectorized):
        groups = group_by_structure(vectorized)
        signatures = [g.graph.signature for g in groups]
        assert len(signatures) == len(set(signatures))

    def test_group_operator_totals(self, vectorized):
        groups = group_by_structure(vectorized)
        total_ops = sum(g.n_operators for g in groups)
        assert total_ops == sum(len(p.features) for p in vectorized)

    def test_feature_stacking_preserves_rows(self, vectorized):
        groups = group_by_structure(vectorized)
        for g in groups:
            for pos in range(g.graph.n_nodes):
                assert g.features[pos].shape[0] == g.n_plans

    def test_grouping_deterministic(self, vectorized):
        a = [g.graph.signature for g in group_by_structure(vectorized)]
        b = [g.graph.signature for g in group_by_structure(vectorized)]
        assert a == b

    def test_stacking_dtype_rounds_like_a_cast(self, vectorized):
        """Stacking in float32 equals stacking in float64 and casting."""
        wide = group_by_structure(vectorized)
        narrow = group_by_structure(vectorized, np.float32)
        for a, b in zip(wide, narrow):
            assert b.labels.dtype == np.float32
            assert np.array_equal(a.labels.astype(np.float32), b.labels)
            for pos in range(a.graph.n_nodes):
                assert b.features[pos].dtype == np.float32
                assert np.array_equal(a.features[pos].astype(np.float32), b.features[pos])


class TestPreGroupedFromSamples:
    """``PreGroupedCorpus.from_samples`` (the compiled-featurization
    construction) must be bitwise equivalent to the reference
    vectorize-then-group construction in every stored matrix."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_reference(self, samples, vectorized, dtype):
        from repro.core import PreGroupedCorpus

        featurizer = Featurizer().fit([s.plan for s in samples])
        reference = PreGroupedCorpus(
            vectorize_corpus(samples, featurizer), dtype=dtype
        )
        compiled = PreGroupedCorpus.from_samples(samples, featurizer, dtype=dtype)
        assert compiled.dtype == np.dtype(dtype)
        assert compiled.n_plans == reference.n_plans
        assert compiled.n_structures == reference.n_structures
        assert np.array_equal(compiled._group_of, reference._group_of)
        assert np.array_equal(compiled._row_of, reference._row_of)
        for got, want in zip(compiled.groups, reference.groups):
            assert got.graph.signature == want.graph.signature
            assert got.labels.dtype == want.labels.dtype
            assert np.array_equal(got.labels, want.labels)
            for pos in range(want.graph.n_nodes):
                assert got.features[pos].dtype == want.features[pos].dtype
                assert np.array_equal(got.features[pos], want.features[pos])

    def test_gather_matches_reference_gather(self, samples):
        """A batch of the compiled corpus takes bitwise the rows the
        reference corpus takes, and both lay ``group_by_structure`` of
        the same plans out in the level plan's order."""
        from repro.core import PreGroupedCorpus, QPPNet, QPPNetConfig

        featurizer = Featurizer().fit([s.plan for s in samples])
        vectorized = vectorize_corpus(samples, featurizer)
        reference = PreGroupedCorpus(vectorized)
        compiled = PreGroupedCorpus.from_samples(samples, featurizer)
        rng = np.random.default_rng(9)
        indices = rng.permutation(len(samples))[:16]
        groups = group_by_structure([vectorized[i] for i in indices])
        model = QPPNet(featurizer, QPPNetConfig(hidden_layers=1, neurons=4, data_size=2))
        batch = reference.batch(indices)
        plan = model.compile_level_plan(batch.graphs, batch.counts)
        want_features, want_labels = batch.take(plan)
        got_features, got_labels = compiled.batch(indices).take(plan)
        assert np.array_equal(got_labels, want_labels)
        stacked = plan.stack_positions([g.features for g in groups])
        assert got_features.keys() == want_features.keys() == stacked.keys()
        for ltype, matrix in want_features.items():
            assert np.array_equal(got_features[ltype], matrix)
            assert np.array_equal(matrix, stacked[ltype])
        for gi, group in enumerate(groups):
            for pos in range(group.graph.n_nodes):
                assert np.array_equal(want_labels[plan.node_rows(gi, pos)], group.labels[:, pos])

    def test_empty_rejected(self, samples):
        from repro.core import PreGroupedCorpus

        featurizer = Featurizer().fit([s.plan for s in samples])
        with pytest.raises(ValueError):
            PreGroupedCorpus.from_samples([], featurizer)


class TestSampleBatches:
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batches_cover_corpus_exactly_once(self, batch_size, seed):
        items = list(range(50))
        batches = sample_batches(items, batch_size, np.random.default_rng(seed))
        flat = [x for b in batches for x in b]
        assert sorted(flat) == items
        assert all(len(b) <= batch_size for b in batches)

    def test_batches_shuffled(self):
        items = list(range(100))
        batches = sample_batches(items, 100, np.random.default_rng(0))
        assert batches[0] != items  # astronomically unlikely to be sorted

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            sample_batches([1], 0, np.random.default_rng(0))


class TestPlanGraphDepth:
    def test_depth_of_matches_tree(self, vectorized):
        for plan in vectorized[:5]:
            graph = plan.graph
            root_depth = graph.depth_of(0)
            leaf_positions = [
                p for p in range(graph.n_nodes) if not graph.children[p]
            ]
            assert all(graph.depth_of(p) == 1 for p in leaf_positions)
            assert root_depth >= 1

    def test_heights_match_recursive_definition(self, vectorized):
        def recursive_height(graph, pos):
            kids = graph.children[pos]
            if not kids:
                return 0
            return 1 + max(recursive_height(graph, k) for k in kids)

        for plan in vectorized[:5]:
            graph = plan.graph
            assert graph.heights == tuple(
                recursive_height(graph, p) for p in range(graph.n_nodes)
            )
            # depth_of is the 1-based view of the same pass.
            assert all(
                graph.depth_of(p) == graph.heights[p] + 1
                for p in range(graph.n_nodes)
            )

    def test_heights_memoized(self, vectorized):
        graph = vectorized[0].graph
        assert graph.heights is graph.heights  # one postorder pass, cached

    def test_depth_of_iterative_on_deep_chain(self):
        """A unary chain deeper than the recursion limit: the old
        recursive depth_of would blow the stack; the postorder pass must
        not."""
        from repro.core.batching import PlanGraph
        from repro.plans.operators import LogicalType

        n = 5000
        types = tuple(
            [LogicalType.MATERIALIZE] * (n - 1) + [LogicalType.SCAN]
        )
        children = tuple(
            tuple([pos + 1]) if pos < n - 1 else () for pos in range(n)
        )
        postorder = tuple(range(n - 1, -1, -1))
        graph = PlanGraph("chain", types, children, postorder)
        assert graph.depth_of(0) == n
        assert graph.depth_of(n - 1) == 1
