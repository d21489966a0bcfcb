"""Compiled featurization tier: FeatureProgram / FeatureProgramCache /
FeatureVectorCache.

The aligned-vs-scalar bitwise sync contract (``test_aligned.py``)
extends to this tier: a compiled program's rows must equal
``transform_node`` bit for bit in float64 and equal ``transform_aligned``
bit for bit in float32, including unknown one-hot categories and
``extra_numeric_fn`` columns.  The plan-identity digest must distinguish
every plan the programs would featurize differently, and the
feature-vector cache must behave as a bounded LRU whose hits are
byte-for-byte the rows a miss would compute.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.batching import plan_graph
from repro.featurize import (
    FeatureProgram,
    FeatureProgramCache,
    FeatureVectorCache,
    Featurizer,
)
from repro.plans import LogicalType, PlanNode
from repro.workload import Workbench


@pytest.fixture(scope="module")
def fitted():
    wb = Workbench("tpcds", scale_factor=0.2, seed=0)
    corpus = wb.generate(80, rng=np.random.default_rng(4))
    featurizer = Featurizer().fit([s.plan for s in corpus])
    return featurizer, corpus


def _nodes_by_type(corpus):
    by_type = {}
    for sample in corpus:
        for node in sample.plan.preorder():
            by_type.setdefault(node.logical_type, []).append(node)
    return by_type


def _clone_with_props(node, **overrides):
    clone = PlanNode(node.op, dict(node.props, **overrides), node.children)
    clone.actual_rows = node.actual_rows
    clone.actual_total_ms = node.actual_total_ms
    return clone


class TestFeatureProgram:
    def test_bitwise_equal_to_scalar_path(self, fitted):
        featurizer, corpus = fitted
        programs = featurizer.compiled()
        checked = 0
        for ltype, nodes in _nodes_by_type(corpus).items():
            matrix = programs.program(ltype).run(nodes)
            for row, node in zip(matrix, nodes):
                assert np.array_equal(row, featurizer.transform_node(node))
                checked += 1
        assert checked > 100  # a real mixed corpus, not a trivial one

    def test_float32_bitwise_equal_to_aligned(self, fitted):
        featurizer, corpus = fitted
        programs = featurizer.compiled()
        for ltype, nodes in _nodes_by_type(corpus).items():
            compiled32 = programs.program(ltype).run(nodes, dtype=np.float32)
            assert compiled32.dtype == np.float32
            aligned32 = featurizer.transform_aligned(nodes, dtype=np.float32)
            assert np.array_equal(compiled32, aligned32)

    def test_unknown_onehot_category_matches_scalar(self, fitted):
        featurizer, corpus = fitted
        program = featurizer.compiled().program(LogicalType.SCAN)
        scan = next(
            n
            for s in corpus
            for n in s.plan.preorder()
            if n.logical_type == LogicalType.SCAN
        )
        unknown = _clone_with_props(scan, **{"Relation Name": "no_such_relation"})
        row = program.run([unknown])[0]
        assert np.array_equal(row, featurizer.transform_node(unknown))
        # The unknown category leaves its entire one-hot block cold, and
        # must not steal a neighbouring block's column.
        vocab = featurizer.vocabulary(LogicalType.SCAN, "Relation Name")
        known = _clone_with_props(scan, **{"Relation Name": vocab[0]})
        known_row = program.run([known])[0]
        assert np.array_equal(known_row, featurizer.transform_node(known))
        assert not np.array_equal(row, known_row)

    def test_writes_into_given_buffer(self, fitted):
        featurizer, corpus = fitted
        nodes = _nodes_by_type(corpus)[LogicalType.SCAN][:8]
        program = featurizer.compiled().program(LogicalType.SCAN)
        out = np.empty((len(nodes), program.width))
        result = program.run(nodes, out=out)
        assert result is out
        assert np.array_equal(result, program.run(nodes))

    def test_empty_nodes_raises(self, fitted):
        featurizer, _ = fitted
        with pytest.raises(ValueError):
            featurizer.compiled().program(LogicalType.SCAN).run([])

    def test_out_shape_mismatch_raises(self, fitted):
        featurizer, corpus = fitted
        nodes = _nodes_by_type(corpus)[LogicalType.SCAN][:3]
        with pytest.raises(ValueError):
            featurizer.compiled().program(LogicalType.SCAN).run(
                nodes, out=np.empty((3, 1))
            )

    def test_unfitted_featurizer_rejected(self):
        with pytest.raises(RuntimeError):
            FeatureProgram(Featurizer(), LogicalType.SCAN)


class TestExtraNumericFn:
    @pytest.fixture(scope="class")
    def fitted_extra(self, fitted):
        _, corpus = fitted
        featurizer = Featurizer(
            extra_numeric_fn=lambda node: [float(len(node.children)), 1.0]
        )
        featurizer.fit([s.plan for s in corpus])
        return featurizer, corpus

    def test_bitwise_equal_to_scalar_path(self, fitted_extra):
        featurizer, corpus = fitted_extra
        programs = featurizer.compiled()
        for ltype, nodes in _nodes_by_type(corpus).items():
            matrix = programs.program(ltype).run(nodes[:20])
            for row, node in zip(matrix, nodes[:20]):
                assert np.array_equal(row, featurizer.transform_node(node))

    def test_extra_outputs_feed_the_digest(self, fitted_extra):
        featurizer, corpus = fitted_extra
        programs = featurizer.compiled()
        plan = corpus[0].plan
        graph, nodes = plan_graph(plan), list(plan.preorder())
        assert programs.digest(graph, nodes) == programs.digest(graph, nodes)
        # A second hook with different outputs must change the digest:
        # the cache would otherwise serve rows computed by the old hook.
        featurizer.extra_numeric_fn = lambda node: [0.0, 0.0]
        assert featurizer.compiled().digest(graph, nodes) != programs.digest(
            graph, nodes
        )

    def test_ragged_arity_rejected(self, fitted_extra):
        featurizer, corpus = fitted_extra
        featurizer.extra_numeric_fn = lambda node: [1.0, 2.0, 3.0]  # fitted with 2
        nodes = _nodes_by_type(corpus)[LogicalType.SCAN][:2]
        with pytest.raises(ValueError):
            featurizer.compiled().program(LogicalType.SCAN).run(nodes)
        featurizer.extra_numeric_fn = lambda node: [float(len(node.children)), 1.0]


class TestPlanIdentityDigest:
    def test_deterministic_and_hashable(self, fitted):
        featurizer, corpus = fitted
        programs = featurizer.compiled()
        for sample in corpus[:20]:
            graph = plan_graph(sample.plan)
            nodes = list(sample.plan.preorder())
            digest = programs.digest(graph, nodes)
            assert digest == programs.digest(graph, nodes)
            hash(digest)  # must be usable as a cache key

    def test_batched_digests_match_single(self, fitted):
        featurizer, corpus = fitted
        programs = featurizer.compiled()
        graph = plan_graph(corpus[0].plan)
        node_lists = [list(corpus[0].plan.preorder()) for _ in range(3)]
        assert programs.digests(graph, node_lists) == [
            programs.digest(graph, nodes) for nodes in node_lists
        ]

    def test_property_change_changes_digest(self, fitted):
        featurizer, corpus = fitted
        programs = featurizer.compiled()
        plan = corpus[0].plan
        graph, nodes = plan_graph(plan), list(plan.preorder())
        reference = programs.digest(graph, nodes)
        for pos, node in enumerate(nodes):
            mutated = list(nodes)
            mutated[pos] = _clone_with_props(node, **{"Total Cost": 1e18})
            assert programs.digest(graph, mutated) != reference

    def test_unhashable_property_is_uncacheable_not_fatal(self, fitted):
        featurizer, corpus = fitted
        programs = featurizer.compiled()
        plan = corpus[0].plan
        graph, nodes = plan_graph(plan), list(plan.preorder())
        weird = list(nodes)
        weird[0] = _clone_with_props(nodes[0], **{"Total Cost": {"not": "hashable"}})
        digest = programs.digest(graph, weird)  # builds fine
        cache = FeatureVectorCache(4)
        assert cache.get(digest) is None  # TypeError swallowed -> miss
        cache.put(digest, {})  # silently not stored
        assert len(cache) == 0
        assert cache.misses == 1

    def test_identity_matches_inlined_digest_walk(self, fitted):
        """The lean / vector inlined paths of the digest walk must agree
        with the reference ``FeatureProgram.identity`` per node."""
        featurizer, corpus = fitted
        programs = featurizer.compiled()
        for sample in corpus[:10]:
            graph = plan_graph(sample.plan)
            nodes = list(sample.plan.preorder())
            _, parts = programs.digest(graph, nodes)
            flat = [
                programs.program(graph.types[pos]).identity(nodes[pos])
                for _, positions in programs.layout(graph)
                for pos in positions
            ]
            assert list(parts) == flat


class TestFeatureProgramCache:
    def test_programs_are_reused(self, fitted):
        featurizer, _ = fitted
        programs = featurizer.compiled()
        assert programs.program(LogicalType.SCAN) is programs.program(LogicalType.SCAN)
        assert featurizer.compiled() is programs  # cached on the featurizer

    def test_layout_covers_every_position_once(self, fitted):
        featurizer, corpus = fitted
        programs = featurizer.compiled()
        graph = plan_graph(corpus[0].plan)
        layout = programs.layout(graph)
        seen = sorted(pos for program, positions in layout for pos in positions)
        assert seen == list(range(graph.n_nodes))
        for program, positions in layout:
            assert all(graph.types[pos] == program.ltype for pos in positions)

    def test_concurrent_compiles_share_one_program(self, fitted):
        """The drain thread and a retrain's pre-grouping share one cache:
        threads compiling the same type at once must all get the same
        program, or a batch would group one type's nodes under two."""
        featurizer, _ = fitted
        programs = FeatureProgramCache(featurizer)
        barrier = threading.Barrier(8)
        got = []

        def compile_scan():
            barrier.wait(timeout=10)
            got.append(programs.program(LogicalType.SCAN))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=compile_scan) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 8
        assert all(program is programs.program(LogicalType.SCAN) for program in got)

    def test_refit_invalidates_compiled_tier(self, fitted):
        _, corpus = fitted
        featurizer = Featurizer().fit([s.plan for s in corpus[:10]])
        before = featurizer.compiled()
        featurizer.fit([s.plan for s in corpus])
        assert featurizer.compiled() is not before


class TestFeatureVectorCache:
    def test_lru_eviction_and_counters(self):
        cache = FeatureVectorCache(max_entries=2)
        a, b, c = ("a",), ("b",), ("c",)
        block = {LogicalType.SCAN: np.zeros((1, 2))}
        cache.put(a, block)
        cache.put(b, block)
        assert cache.get(a) is block  # refreshes "a"
        cache.put(c, block)  # evicts "b", the least recently used
        assert cache.get(b) is None
        assert cache.get(a) is block and cache.get(c) is block
        assert (cache.hits, cache.misses, cache.evictions) == (3, 1, 1)
        assert len(cache) == 2

    def test_clear_keeps_counters(self):
        cache = FeatureVectorCache(max_entries=2)
        cache.put(("a",), {})
        cache.get(("a",))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.get(("a",)) is None  # entries really gone

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            FeatureVectorCache(max_entries=0)
