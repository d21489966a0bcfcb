"""Serving-layer properties: batch/per-plan agreement, cache identity,
registry behaviour (ISSUE: compile-once + structure-bucketed serving)."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QPPNet, QPPNetConfig, Trainer, plan_graph, save_bundle
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


@pytest.fixture(scope="module")
def composition_pools():
    """Per workload: a briefly trained model, its plan pool, and each
    plan's value served alone and by the taped reference."""
    pools = {}
    for name in ("tpch", "tpcds"):
        samples = Workbench(name, scale_factor=0.2, seed=0).generate(
            48, rng=np.random.default_rng(21)
        )
        featurizer = Featurizer().fit([s.plan for s in samples])
        config = QPPNetConfig(epochs=3, batch_size=16)
        model = QPPNet(featurizer, config)
        Trainer(model, config).fit(samples)
        plans = [s.plan for s in samples]
        session = InferenceSession(model)
        single = np.array([session.predict_batch([p])[0] for p in plans])
        taped = np.array([model.predict(p) for p in plans])
        pools[name] = (model, plans, single, taped)
    return pools


class TestBatchComposition:
    """The session's batch-composition contract (float64): a plan's
    served value depends on its batch-mates only through rounding."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_mates_change_values_only_by_rounding(self, composition_pools, data):
        name = data.draw(st.sampled_from(sorted(composition_pools)))
        model, plans, single, taped = composition_pools[name]
        size = data.draw(st.integers(2, 300))
        picks = np.array(
            data.draw(st.lists(st.integers(0, len(plans) - 1), min_size=size, max_size=size))
        )
        served = InferenceSession(model).predict_batch([plans[i] for i in picks])
        assert np.all(np.abs(served - single[picks]) <= 1e-11 * single[picks])
        assert np.all(np.abs(served - taped[picks]) <= 1e-9 * taped[picks])


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

    def test_each_bucket_resolves_its_layout_once(self, model, corpus, monkeypatch):
        """Featurization resolves a bucket's layout once and uses it for
        both the identity digests and the feature programs: one lookup
        per plan in batches of one, one per structure in a fused batch."""
        from repro.featurize.compiled import FeatureProgramCache

        plans = [s.plan for s in corpus]
        session = InferenceSession(model)
        session.predict_batch(plans)  # warm: programs, layouts and cache
        calls = []
        real = FeatureProgramCache.layout

        def layout(self, graph):
            calls.append(graph.signature)
            return real(self, graph)

        monkeypatch.setattr(FeatureProgramCache, "layout", layout)
        for plan in plans:
            session.predict_batch([plan])
        assert len(calls) == len(plans)
        calls.clear()
        session.predict_batch(plans)
        assert len(calls) == len({plan_graph(p).signature for p in plans})

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
        # Serving never runs the taped reference: single-plan predict is
        # a batch of one through the same level plans.
        session.predict(plans[0])
        session.predict(plans[0])
        assert model.level_plans.misses == len(structures)
        assert model.schedules.hits == model.schedules.misses == 0

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


def structure_twins(plans):
    """Two plans of one structure."""
    by_signature = {}
    for plan in plans:
        by_signature.setdefault(plan.structure_signature(), []).append(plan)
    return max(by_signature.values(), key=len)[:2]


def distinct_structures(plans, n):
    by_signature = {}
    for plan in plans:
        by_signature.setdefault(plan.structure_signature(), plan)
    return list(by_signature.values())[:n]


@pytest.fixture()
def compile_calls(monkeypatch):
    """Records the plan counts of every ``compile_level_plan`` call."""
    calls = []
    original = QPPNet.compile_level_plan

    def spy(self, graphs, counts):
        calls.append(list(counts))
        return original(self, graphs, counts)

    monkeypatch.setattr(QPPNet, "compile_level_plan", spy)
    return calls


class TestOnePlanMemo:
    """A batch of one reuses its structure's memoized level plan."""

    def test_hits_bitwise_equal_a_fresh_session(self, model, corpus):
        plans = [s.plan for s in corpus]
        session = InferenceSession(model)
        for plan in plans:  # every structure's one-plan level plan built
            session.predict_batch([plan])
        for plan in plans:
            fresh = InferenceSession(model)
            assert np.array_equal(session.predict_batch([plan]), fresh.predict_batch([plan]))
            assert session.predict_operators_batch([plan]) == fresh.predict_operators_batch(
                [plan]
            )

    def test_hits_do_not_alias_results(self, composition_pools):
        model, plans, _, _ = composition_pools["tpch"]  # trained: values differ
        a, b = structure_twins(plans)
        session = InferenceSession(model)
        first = session.predict_batch([a])
        kept = first.copy()
        assert session.predict_batch([b])[0] != kept[0]
        assert session.predict_batch([a])[0] == kept[0]
        assert np.array_equal(first, kept)

    def test_repeat_structure_skips_compile(self, model, corpus, compile_calls):
        a, b = structure_twins([s.plan for s in corpus])
        session = InferenceSession(model)
        session.predict_batch([a])
        assert compile_calls == [[1]]
        session.predict_batch([b])
        session.predict_operators_batch([a])
        session.predict(b)
        assert compile_calls == [[1]]
        session.predict_batch([a, b])  # a small batch runs plan by plan
        assert compile_calls == [[1]]
        fused = [s.plan for s in corpus[: InferenceSession.MAX_PLAN_BY_PLAN + 1]]
        session.predict_batch(fused)  # past the crossover: one fused compile
        assert len(compile_calls) == 2 and sum(compile_calls[1]) == len(fused)

    def test_memo_is_bounded_fifo(self, model, corpus, compile_calls, monkeypatch):
        monkeypatch.setattr(InferenceSession, "MAX_STRUCTURES", 2)
        x, y, z = distinct_structures([s.plan for s in corpus], 3)
        session = InferenceSession(model)
        for plan in (x, y, z):  # z evicts x, the oldest
            session.predict_batch([plan])
        assert len(session._structures) == 2
        assert len(compile_calls) == 3
        session.predict_batch([y])  # still held
        assert len(compile_calls) == 3
        session.predict_batch([x])  # evicted: compiles again, evicting y
        assert len(compile_calls) == 4
        session.predict_batch([y])
        assert len(compile_calls) == 5
        assert len(session._structures) == 2


class TestPlanByPlan:
    """A batch of at most ``MAX_PLAN_BY_PLAN`` plans runs plan by plan
    through the memoized one-plan level plans: every value is exactly
    its batch-of-one value."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_small_batches_equal_batches_of_one(self, corpus, dtype):
        config = QPPNetConfig(
            hidden_layers=2, neurons=16, data_size=4, epochs=2, batch_size=16, dtype=dtype
        )
        model = QPPNet(Featurizer().fit([s.plan for s in corpus]), config)
        Trainer(model, config).fit(corpus)  # trained: values off the floor
        plans = [s.plan for s in corpus]
        alone = InferenceSession(model)
        single = [alone.predict_batch([plan]) for plan in plans]
        operators = [alone.predict_operators_batch([plan])[0] for plan in plans]
        session = InferenceSession(model)
        rng = np.random.default_rng(5)
        served_plans = 0
        for _ in range(40):
            size = int(rng.integers(2, InferenceSession.MAX_PLAN_BY_PLAN + 1))
            picks = rng.integers(0, len(plans), size)
            batch = [plans[i] for i in picks]
            served = session.predict_batch(batch)
            assert served.dtype == np.float64
            assert served.tobytes() == np.concatenate([single[i] for i in picks]).tobytes()
            assert session.predict_operators_batch(batch) == [operators[i] for i in picks]
            served_plans += 2 * size
        assert session.requests_served == served_plans  # each plan counted once


def _served_bits(session, plans):
    """Every serving path's output bytes: batches of one, one
    plan-by-plan batch (values and operators) and one fused batch."""
    small = plans[: InferenceSession.MAX_PLAN_BY_PLAN]
    return (
        [session.predict_batch([plan]).tobytes() for plan in plans],
        session.predict_batch(small).tobytes(),
        session.predict_operators_batch(small),
        session.predict_batch(plans).tobytes(),
    )


class TestParametersChangedInPlace:
    """Serving reads every layer's weights when it runs: a warm session
    (memoized one-plan plans, cached features) serves parameters changed
    in place exactly as a fresh session does."""

    def test_warm_session_serves_new_parameters(self, corpus):
        plans = [s.plan for s in corpus[:24]]
        config = QPPNetConfig(hidden_layers=2, neurons=16, data_size=4, epochs=2, batch_size=16)
        featurizer = Featurizer().fit([s.plan for s in corpus])
        model = QPPNet(featurizer, config)
        keys, size = sorted(model.state_dict()), model.num_parameters()
        session = InferenceSession(model)
        served = _served_bits(session, plans)  # warms the memo and caches

        other = QPPNet(featurizer, QPPNetConfig(hidden_layers=2, neurons=16, data_size=4, seed=1))
        model.load_state_dict(other.state_dict())
        loaded = _served_bits(session, plans)
        assert loaded == _served_bits(InferenceSession(model), plans)
        assert loaded[0] != served[0]

        Trainer(model, config).fit(corpus)  # binds a FlatParameterSpace
        trained = _served_bits(session, plans)
        assert trained == _served_bits(InferenceSession(model), plans)
        assert trained[0] != loaded[0]

        assert sorted(model.state_dict()) == keys
        assert model.num_parameters() == size


def retained_growth(session, warm_up, churn):
    """Bytes the session and model still hold after ``churn`` that they
    did not hold after ``warm_up`` (both lists of batches)."""
    tracemalloc.start()
    try:
        for batch in warm_up:
            session.predict_batch(batch)
        gc.collect()
        warm = tracemalloc.get_traced_memory()[0]
        for batch in churn:
            session.predict_batch(batch)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - warm
    finally:
        tracemalloc.stop()


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
        grown = retained_growth(InferenceSession(model), [plans] + batches[:100], batches[100:])
        assert grown <= 64 * 1024, f"retained memory grew {grown} bytes"

    def test_retained_memory_flat_under_single_plan_churn(self, model, corpus):
        """Single-plan batches cycling over the corpus: once every
        structure's one-plan level plan is memoized, nothing more is
        kept."""
        plans = [s.plan for s in corpus]
        singles = [[plans[i % len(plans)]] for i in range(600)]
        grown = retained_growth(InferenceSession(model), [plans] + singles[:100], singles[100:])
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
