"""Serving-layer properties: batch/per-plan agreement, cache identity,
registry behaviour (ISSUE: compile-once + structure-bucketed serving)."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import QPPNet, QPPNetConfig, plan_graph, save_bundle
from repro.featurize import Featurizer
from repro.serving import InferenceSession, ModelRegistry
from repro.workload import Workbench


@pytest.fixture(scope="module")
def corpus():
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    return wb.generate(64, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def model(corpus):
    featurizer = Featurizer().fit([s.plan for s in corpus])
    return QPPNet(featurizer, QPPNetConfig(hidden_layers=2, neurons=16, data_size=4))


@pytest.fixture()
def session(model):
    return InferenceSession(model)


class TestBatchAgreement:
    def test_predict_batch_matches_per_plan(self, session, model, corpus):
        """Batched serving is numerically identical (<=1e-9) to the
        per-plan predict loop on a mixed-template corpus."""
        plans = [s.plan for s in corpus]
        batched = session.predict_batch(plans)
        per_plan = np.array([model.predict(p) for p in plans])
        assert batched.shape == (len(plans),)
        assert np.max(np.abs(batched - per_plan)) <= 1e-9

    def test_scatter_preserves_request_order(self, session, model, corpus):
        """Shuffled requests come back in request order, not bucket order."""
        rng = np.random.default_rng(11)
        order = rng.permutation(len(corpus))
        plans = [corpus[i].plan for i in order]
        batched = session.predict_batch(plans)
        for plan, value in zip(plans, batched):
            assert value == pytest.approx(model.predict(plan), abs=1e-9)

    def test_predict_operators_batch_matches_per_plan(self, session, model, corpus):
        plans = [s.plan for s in corpus[:16]]
        batched = session.predict_operators_batch(plans)
        for plan, ops in zip(plans, batched):
            reference = model.predict_operators(plan)
            assert len(ops) == plan.node_count()
            assert ops == pytest.approx(reference, abs=1e-9)

    def test_singleton_batch_and_empty(self, session, model, corpus):
        plan = corpus[0].plan
        assert session.predict(plan) == pytest.approx(model.predict(plan), abs=1e-9)
        assert session.predict_batch([]).shape == (0,)
        assert session.predict_operators_batch([]) == []

    def test_empty_batch_never_touches_compile_caches(self, model):
        """The empty fast path must not compile, cache or pool anything —
        the coalescing service can legitimately drain nothing."""
        model.schedules.clear()
        model.level_plans.clear()
        session = InferenceSession(model)
        assert session.predict_batch([]).shape == (0,)
        assert session.predict_operators_batch([]) == []
        assert model.level_plans.hits == model.level_plans.misses == 0
        assert model.schedules.hits == model.schedules.misses == 0
        assert len(session._pool) == 0

    def test_repeated_calls_are_stable(self, session, corpus):
        """Buffer reuse must not leak state across predict_batch calls."""
        plans = [s.plan for s in corpus]
        first = session.predict_batch(plans)
        again = session.predict_batch(list(reversed(plans)))[::-1]
        assert np.array_equal(first, again)


class TestFeatureCache:
    def test_warm_cache_is_bitwise_identical(self, model, corpus):
        """A cache hit returns exactly the rows a miss would compute:
        warm predictions equal cold ones bit for bit."""
        plans = [s.plan for s in corpus]
        session = InferenceSession(model)
        cold = session.predict_batch(plans)
        stats = session.stats()
        assert stats.feature_cache_misses == len(plans)
        assert stats.feature_cache_hits == 0
        warm = session.predict_batch(plans)
        stats = session.stats()
        assert stats.feature_cache_hits == len(plans)  # every plan hit
        assert np.array_equal(cold, warm)

    def test_disabled_cache_agrees(self, model, corpus):
        plans = [s.plan for s in corpus]
        cached = InferenceSession(model)
        uncached = InferenceSession(model, feature_cache_size=None)
        assert uncached.feature_cache is None
        cached.predict_batch(plans)  # fill
        assert np.array_equal(cached.predict_batch(plans), uncached.predict_batch(plans))
        stats = uncached.stats()
        assert stats.feature_cache_hits == stats.feature_cache_misses == 0
        assert stats.feature_cache_entries == 0

    def test_bounded_eviction(self, model, corpus):
        plans = [s.plan for s in corpus]
        session = InferenceSession(model, feature_cache_size=4)
        session.predict_batch(plans)
        stats = session.stats()
        assert stats.feature_cache_entries <= 4
        assert stats.feature_cache_evictions > 0
        # Still correct after (heavy) eviction churn.
        reference = InferenceSession(model, feature_cache_size=None).predict_batch(plans)
        assert np.array_equal(session.predict_batch(plans), reference)

    def test_single_plan_predict_shares_the_cache(self, model, corpus):
        plan = corpus[0].plan
        session = InferenceSession(model)
        first = session.predict(plan)
        stats = session.stats()
        assert (stats.feature_cache_misses, stats.feature_cache_hits) == (1, 0)
        assert session.predict(plan) == first
        assert session.stats().feature_cache_hits == 1
        # predict_batch hits the entry predict populated (one shared
        # digest scheme across both paths).
        session.predict_batch([plan])
        assert session.stats().feature_cache_hits == 2

    def test_parameter_change_misses(self, model, corpus):
        """Same structure, different property values -> distinct cache
        entries, never a stale hit."""
        from repro.plans import PlanNode

        session = InferenceSession(model)
        plan = corpus[0].plan
        session.predict(plan)
        mutated = PlanNode(plan.op, dict(plan.props, **{"Total Cost": 1e18}), plan.children)
        session.predict(mutated)
        stats = session.stats()
        assert stats.feature_cache_hits == 0
        assert stats.feature_cache_misses == 2
        assert stats.feature_cache_entries == 2

    def test_stats_snapshot(self, model, corpus):
        session = InferenceSession(model)
        plans = [s.plan for s in corpus[:8]]
        session.predict_batch(plans)
        session.predict(plans[0])
        stats = session.stats()
        assert stats.requests_served == len(plans) + 1
        assert stats.feature_cache_hits + stats.feature_cache_misses > 0


class TestScheduleCache:
    def test_same_structure_returns_same_schedule_object(self, model, corpus):
        by_signature = {}
        for sample in corpus:
            by_signature.setdefault(sample.plan.structure_signature(), []).append(
                sample.plan
            )
        signature, twins = max(by_signature.items(), key=lambda kv: len(kv[1]))
        assert len(twins) >= 2, "corpus should repeat structures"
        first = model.compile_schedule(plan_graph(twins[0]))
        second = model.compile_schedule(plan_graph(twins[1]))
        assert first is second
        assert first.signature == signature

    def test_cache_hit_statistics(self, model, corpus):
        model.schedules.clear()
        model.level_plans.clear()
        session = InferenceSession(model)
        plans = [s.plan for s in corpus]
        structures = {p.structure_signature() for p in plans}
        # Whole-batch serving builds each structure's level arrays once;
        # any later mix of the same structures compiles from the cache.
        session.predict_batch(plans)
        assert model.level_plans.misses == len(structures)
        session.predict_batch(plans[::-1][:5])
        assert model.level_plans.misses == len(structures)  # warm now
        assert model.level_plans.hits == len({p.structure_signature() for p in plans[::-1][:5]})
        # The single-plan fast path goes through per-structure schedules.
        session.predict(plans[0])
        assert model.schedules.misses == 1
        session.predict(plans[0])
        assert model.schedules.misses == 1  # warm now

    def test_lru_eviction(self, model, corpus):
        from repro.core import ScheduleCache

        cache = ScheduleCache(maxsize=2)
        graphs = []
        for sample in corpus:
            graph = plan_graph(sample.plan)
            if graph.signature not in {g.signature for g in graphs}:
                graphs.append(graph)
            if len(graphs) == 3:
                break
        assert len(graphs) == 3
        a = cache.get(graphs[0], model.units)
        cache.get(graphs[1], model.units)
        cache.get(graphs[2], model.units)  # evicts graphs[0]
        assert len(cache) == 2
        assert cache.get(graphs[0], model.units) is not a  # recompiled


class TestBoundedMemory:
    def test_retained_memory_flat_under_composition_churn(self, model, corpus):
        """500+ batches whose structure mixes never repeat: after warm-up
        (every plan featurized and cached once, every structure's level
        arrays built) the memory the session and model retain stops
        growing — nothing is kept per structure mix."""
        plans = [s.plan for s in corpus]
        signatures = [p.structure_signature() for p in plans]
        rng = np.random.default_rng(17)
        seen, batches = set(), []
        while len(batches) < 600:
            picks = rng.choice(len(plans), size=int(rng.integers(2, 10)), replace=False)
            mix = tuple(sorted(signatures[i] for i in picks))
            if mix not in seen:
                seen.add(mix)
                batches.append([plans[i] for i in picks])
        session = InferenceSession(model)
        tracemalloc.start()
        try:
            session.predict_batch(plans)
            for batch in batches[:100]:
                session.predict_batch(batch)
            gc.collect()
            warm = tracemalloc.get_traced_memory()[0]
            for batch in batches[100:]:
                session.predict_batch(batch)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - warm
        finally:
            tracemalloc.stop()
        assert grown <= 64 * 1024, f"retained memory grew {grown} bytes"


class TestModelRegistry:
    def test_register_and_session_identity(self, model):
        registry = ModelRegistry()
        registry.register("tpch", model)
        assert "tpch" in registry
        assert registry.model("tpch") is model
        assert registry.session("tpch") is registry.session("tpch")

    def test_load_bundle_roundtrip(self, model, corpus, tmp_path):
        save_bundle(model, tmp_path / "bundle")
        registry = ModelRegistry()
        session = registry.load("tpch-restored", tmp_path / "bundle")
        plans = [s.plan for s in corpus[:8]]
        restored = session.predict_batch(plans)
        original = np.array([model.predict(p) for p in plans])
        assert restored == pytest.approx(original, abs=1e-9)

    def test_unknown_name_raises(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.session("nope")
        with pytest.raises(KeyError):
            registry.unregister("nope")

    def test_unregister(self, model):
        registry = ModelRegistry()
        session = registry.register("m", model)
        retired = registry.unregister("m")
        assert retired is session  # handed back for draining
        assert "m" not in registry
        assert len(registry) == 0

    def test_register_session_installs_prewarmed(self, model, corpus):
        """A warmed session hot-swaps in with its caches intact."""
        warmed = InferenceSession(model)
        warmed.predict_batch([s.plan for s in corpus[:8]])
        registry = ModelRegistry()
        registry.register_session("m", warmed)
        assert registry.session("m") is warmed
        assert registry.model("m") is model  # model follows the session

    def test_register_replaces_session(self, model):
        registry = ModelRegistry()
        first = registry.register("m", model)
        second = registry.register("m", model)  # hot-swap same name
        assert first is not second
        assert registry.session("m") is second
