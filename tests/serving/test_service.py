"""PredictionService: futures, coalescing, routing, backpressure, lifecycle
(ISSUE 4: request-centric serving API)."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import QPPNet, QPPNetConfig
from repro.featurize import Featurizer
from repro.serving import (
    InferenceSession,
    ModelRegistry,
    Prediction,
    PredictionService,
    PredictionSettledError,
    QueueFullError,
    ServiceError,
    ServiceStoppedError,
    UnknownModelError,
)
from repro.workload import Workbench


@pytest.fixture(scope="module")
def corpus():
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    return wb.generate(96, rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def plans(corpus):
    return [s.plan for s in corpus]


def make_model(corpus, seed=0):
    featurizer = Featurizer().fit([s.plan for s in corpus])
    return QPPNet(
        featurizer,
        QPPNetConfig(hidden_layers=2, neurons=16, data_size=4, seed=seed),
    )


@pytest.fixture(scope="module")
def model(corpus):
    return make_model(corpus)


@pytest.fixture(scope="module")
def reference(model, plans):
    return InferenceSession(model).predict_batch(plans)


class CountingCondition(threading.Condition):
    """A condition that counts ``notify`` calls and timed ``wait`` calls."""

    def __init__(self, lock):
        super().__init__(lock)
        self.notifies = 0
        self.timed_waits = 0

    def notify(self, n=1):
        self.notifies += 1
        super().notify(n)

    def wait(self, timeout=None):
        if timeout is not None:
            self.timed_waits += 1
        return super().wait(timeout)


def count_wakeups(service):
    """Swap the service's wake-up condition for a counting one (before
    ``start``; it shares the service lock)."""
    service._not_empty = CountingCondition(service._lock)
    return service._not_empty


class TestAgreement:
    def test_submit_matches_predict_batch(self, model, plans, reference):
        """Coalesced service batches are numerically identical (<=1e-9)
        to a direct predict_batch of the same plans."""
        with PredictionService(model, max_batch_size=32, max_wait_ms=1.0) as service:
            handles = [service.submit(p) for p in plans]
            got = np.array([h.result(timeout=30) for h in handles])
        assert np.max(np.abs(got - reference)) <= 1e-9

    @pytest.mark.parametrize(
        "config",
        [{"max_batch_size": 16, "max_wait_ms": 1.0}, {}],
        ids=["window", "default"],
    )
    def test_multithreaded_submitters_agree(self, model, plans, reference, config):
        """8 submitter threads race one service; every prediction still
        matches the whole-batch reference at <=1e-9, in request order."""
        n_threads = 8
        with PredictionService(model, **config) as service:

            def submit_shard(offset):
                shard = list(range(offset, len(plans), n_threads))
                handles = [(i, service.submit(plans[i])) for i in shard]
                return [(i, h.result(timeout=30)) for i, h in handles]

            with ThreadPoolExecutor(n_threads) as pool:
                shards = list(pool.map(submit_shard, range(n_threads)))
        got = np.empty(len(plans))
        for shard in shards:
            for i, value in shard:
                got[i] = value
        assert np.max(np.abs(got - reference)) <= 1e-9
        stats = service.stats()
        assert stats.completed == len(plans)
        assert stats.failed == 0
        assert stats.queue_depth == 0

    def test_submit_many_matches(self, model, plans, reference):
        with PredictionService(model, max_batch_size=len(plans)) as service:
            got = np.array([h.result(timeout=30) for h in service.submit_many(plans)])
        assert np.max(np.abs(got - reference)) <= 1e-9

    def test_predict_convenience(self, model, plans, reference):
        with PredictionService(model) as service:
            assert service.predict(plans[0]) == pytest.approx(reference[0], abs=1e-9)


class TestCoalescing:
    def test_burst_coalesces_into_fused_batches(self, model, plans):
        """A pre-queued burst drains as few large batches, not one-by-one,
        and the request handles report the fusion they got."""
        service = PredictionService(model, max_batch_size=64, max_wait_ms=5.0)
        handles = service.submit_many(plans[:64])  # queued before start
        with service:
            values = [h.result(timeout=30) for h in handles]
        assert len(values) == 64
        assert service.stats().batches == 1
        assert all(h.batch_size == 64 for h in handles)

    def test_max_batch_size_splits(self, model, plans):
        service = PredictionService(model, max_batch_size=16, max_wait_ms=0.0)
        handles = service.submit_many(plans[:64])
        with service:
            [h.result(timeout=30) for h in handles]
        stats = service.stats()
        assert stats.batches >= 4
        assert stats.max_batch_size <= 16

    def test_handle_latency_and_repr(self, model, plans):
        service = PredictionService(model)
        handle = service.submit(plans[0])
        assert isinstance(handle, Prediction)
        assert not handle.done()
        assert handle.latency_ms is None
        assert "pending" in repr(handle)
        with service:
            handle.result(timeout=30)
        assert handle.done()
        assert handle.exception() is None
        assert handle.latency_ms >= 0.0
        assert "done" in repr(handle)

    def test_window_anchored_at_arrival_not_wakeup(self, model, plans):
        """A request that already out-waited the window (e.g. while a
        previous batch executed) is drained immediately on wake-up, not
        held for a fresh full max_wait_ms."""
        service = PredictionService(model, max_batch_size=64, max_wait_ms=1000.0)
        handle = service.submit(plans[0])
        time.sleep(1.1)  # the window expired while nothing was draining
        start = time.perf_counter()
        service.start()
        handle.result(timeout=30)
        elapsed = time.perf_counter() - start
        service.stop()
        # Generous slack for scheduling noise: the buggy behavior (a fresh
        # window anchored at worker wake-up) would take >= 1.0s.
        assert elapsed < 0.5, f"paid a fresh window: {elapsed:.3f}s"

    def test_default_dispatch_never_lingers(self, model, plans):
        """With the default config the drain loop never makes a timed
        wait: it takes what is queued as soon as it is free."""
        service = PredictionService(model)
        wakeups = count_wakeups(service)

        def submit_ten(offset):
            handles = [service.submit(plans[offset + i]) for i in range(10)]
            return [h.result(timeout=30) for h in handles]

        with service:
            with ThreadPoolExecutor(3) as pool:
                values = [v for out in pool.map(submit_ten, (0, 10, 20)) for v in out]
        assert len(values) == 30
        assert wakeups.timed_waits == 0

    def test_submit_notifies_only_when_the_queue_was_empty(self, model, plans):
        service = PredictionService(model)  # never started: nothing drains
        wakeups = count_wakeups(service)
        for plan in plans[:10]:
            service.submit(plan)
        assert wakeups.notifies == 1
        service.stop(drain=False)

    def test_submit_that_fills_a_lingering_batch_notifies(self, model, plans):
        service = PredictionService(model, max_batch_size=4, max_wait_ms=5.0)
        wakeups = count_wakeups(service)
        counts = []
        for plan in plans[:6]:
            service.submit(plan)
            counts.append(wakeups.notifies)
        # First arrival, then the fourth (the batch is full); no others.
        assert counts == [1, 1, 1, 2, 2, 2]
        service.stop(drain=False)

    def test_result_timeout(self, model, plans):
        service = PredictionService(model)  # never started: nothing drains
        handle = service.submit(plans[0])
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)
        service.stop(drain=False)


class TestFeatureCacheStats:
    def test_counters_surface_and_hits_match_uncached(self, corpus, plans):
        """The session's feature-cache counters aggregate into
        ``service.stats()``, and served-from-cache predictions equal the
        cache-disabled reference at <= 1e-9 (bitwise, in fact: a hit is
        exactly the rows a miss would compute)."""
        model = make_model(corpus)
        reference = InferenceSession(model, feature_cache_size=None).predict_batch(
            plans
        )
        with PredictionService(model, max_batch_size=64, max_wait_ms=1.0) as service:
            [h.result(timeout=30) for h in service.submit_many(plans)]  # cold
            cold = service.stats()
            warm_handles = service.submit_many(plans)  # every plan hits now
            got = np.array([h.result(timeout=30) for h in warm_handles])
            warm = service.stats()
        # Cold accounting: every plan was either a miss or (for a plan
        # whose identity twin landed in an earlier coalesced batch) a hit.
        assert cold.feature_cache_hits + cold.feature_cache_misses == len(plans)
        assert cold.feature_cache_misses > 0
        assert warm.feature_cache_hits - cold.feature_cache_hits == len(plans)
        assert warm.feature_cache_misses == cold.feature_cache_misses
        assert np.max(np.abs(got - reference)) <= 1e-9

    def test_counters_aggregate_across_routed_models(self, corpus, plans):
        registry = ModelRegistry()
        registry.register("a", make_model(corpus, seed=1))
        registry.register("b", make_model(corpus, seed=2))
        with PredictionService(registry, max_batch_size=32, max_wait_ms=1.0) as service:
            handles = [service.submit(p, model="a") for p in plans[:8]]
            handles += [service.submit(p, model="b") for p in plans[:8]]
            [h.result(timeout=30) for h in handles]
            stats = service.stats()
        a = registry.session("a").stats()
        b = registry.session("b").stats()
        assert stats.feature_cache_misses == (
            a.feature_cache_misses + b.feature_cache_misses
        )
        assert stats.feature_cache_hits == a.feature_cache_hits + b.feature_cache_hits
        assert stats.feature_cache_misses >= 16

    def test_disabled_cache_reports_zeros(self, corpus, plans):
        session = InferenceSession(make_model(corpus), feature_cache_size=None)
        with PredictionService(session, max_batch_size=32, max_wait_ms=1.0) as service:
            [h.result(timeout=30) for h in service.submit_many(plans[:8])]
            stats = service.stats()
        assert stats.feature_cache_hits == 0
        assert stats.feature_cache_misses == 0
        assert stats.feature_cache_evictions == 0


class TestRoutingAndHotSwap:
    def test_routes_to_named_model(self, corpus, plans):
        a, b = make_model(corpus, seed=1), make_model(corpus, seed=2)
        registry = ModelRegistry()
        registry.register("a", a)
        registry.register("b", b)
        with PredictionService(registry, default_model="a") as service:
            got_a = service.submit(plans[0]).result(timeout=30)
            got_b = service.submit(plans[0], model="b").result(timeout=30)
        assert got_a == pytest.approx(a.predict(plans[0]), abs=1e-9)
        assert got_b == pytest.approx(b.predict(plans[0]), abs=1e-9)
        assert got_a != got_b  # differently-seeded models must disagree

    def test_unknown_model_rejects_at_submit(self, model, plans):
        service = PredictionService(model)
        with pytest.raises(UnknownModelError):
            service.submit(plans[0], model="nope")
        with pytest.raises(UnknownModelError):
            service.submit_many(plans[:2], model="nope")
        service.stop()

    def test_multi_model_registry_needs_default(self, corpus, plans):
        registry = ModelRegistry()
        registry.register("a", make_model(corpus, seed=1))
        registry.register("b", make_model(corpus, seed=2))
        service = PredictionService(registry)  # ambiguous: no default
        assert service.default_model is None
        with pytest.raises(UnknownModelError):
            service.submit(plans[0])
        service.stop()

    def test_hot_swap_under_traffic(self, corpus, plans):
        """Re-registering a name swaps the model between executed batches;
        requests submitted after the swap see the new model."""
        old, new = make_model(corpus, seed=1), make_model(corpus, seed=2)
        registry = ModelRegistry()
        registry.register("m", old)
        with PredictionService(registry, default_model="m") as service:
            before = service.submit(plans[0]).result(timeout=30)
            registry.register("m", new)  # shadow promoted, no restart
            after = service.submit(plans[0]).result(timeout=30)
        assert before == pytest.approx(old.predict(plans[0]), abs=1e-9)
        assert after == pytest.approx(new.predict(plans[0]), abs=1e-9)

    def test_unregistered_mid_flight_fails_typed(self, corpus, plans):
        registry = ModelRegistry()
        registry.register("m", make_model(corpus, seed=1))
        service = PredictionService(registry, default_model="m")
        handle = service.submit(plans[0])  # queued; worker not started yet
        registry.unregister("m")
        with service:
            pass  # start + drain
        assert isinstance(handle.exception(timeout=30), UnknownModelError)
        with pytest.raises(UnknownModelError):
            handle.result()

    def test_batch_size_reports_per_model_fusion(self, corpus, plans):
        """A mixed-model coalesced batch splits into per-model fused
        forwards; each handle reports its model's share, not the whole."""
        registry = ModelRegistry()
        registry.register("a", make_model(corpus, seed=1))
        registry.register("b", make_model(corpus, seed=2))
        service = PredictionService(registry, default_model="a", max_batch_size=12)
        to_a = service.submit_many(plans[:8], model="a")
        to_b = service.submit_many(plans[:4], model="b")
        with service:  # one coalesced batch of 12, split 8 / 4
            [h.result(timeout=30) for h in to_a + to_b]
        assert all(h.batch_size == 8 for h in to_a)
        assert all(h.batch_size == 4 for h in to_b)
        assert service.stats().max_batch_size == 12  # coalesced size

    def test_wraps_session_directly(self, model, plans, reference):
        session = InferenceSession(model)
        with PredictionService(session) as service:
            assert service.registry.session(service.default_model) is session
            got = service.submit(plans[0]).result(timeout=30)
        assert got == pytest.approx(reference[0], abs=1e-9)


class TestBackpressureAndAdmission:
    def test_queue_full_rejects_typed(self, model, plans):
        service = PredictionService(model, max_queue_depth=4)  # not started
        for plan in plans[:4]:
            service.submit(plan)
        with pytest.raises(QueueFullError) as info:
            service.submit(plans[4])
        assert info.value.depth == 4
        assert service.stats().rejected == 1
        service.stop(drain=False)

    def test_submit_many_is_all_or_nothing(self, model, plans):
        service = PredictionService(model, max_queue_depth=8)
        service.submit_many(plans[:5])
        with pytest.raises(QueueFullError):
            service.submit_many(plans[:5])  # 5 + 5 > 8: nothing admitted
        assert service.stats().queue_depth == 5
        assert service.stats().rejected == 5
        service.stop(drain=False)

    def test_execution_errors_forwarded_verbatim(self, model, plans):
        """A KeyError raised inside the forward pass is an application
        error and must reach the handle as-is — not disguised as the
        routing error UnknownModelError."""

        class BoomSession:
            def __init__(self, model):
                self.model = model

            def predict_batch(self, batch):
                raise KeyError("featurization defect")

        registry = ModelRegistry()
        registry.register_session("m", BoomSession(model))
        service = PredictionService(registry, default_model="m")
        handle = service.submit(plans[0])
        with service:
            pass  # drain
        error = handle.exception(timeout=30)
        assert isinstance(error, KeyError)
        assert not isinstance(error, UnknownModelError)
        assert service.stats().failed == 1

    def test_malformed_session_fails_batch_not_worker(self, model, plans):
        """A duck-typed session returning the wrong shape fails those
        requests with a typed error; the worker survives and keeps
        serving the healthy model."""

        class ShortSession:
            def __init__(self, model):
                self.model = model

            def predict_batch(self, batch):
                return [1.0] * (len(batch) - 1)  # one prediction short

        registry = ModelRegistry()
        registry.register("good", model)
        registry.register_session("short", ShortSession(model))
        with PredictionService(registry, default_model="good") as service:
            bad = service.submit_many(plans[:3], model="short")
            errors = [h.exception(timeout=30) for h in bad]
            assert all(isinstance(e, ServiceError) for e in errors)
            # The drain loop survived: the healthy route still serves.
            assert service.submit(plans[0]).result(timeout=30) > 0.0
        assert service.stats().failed == 3

    def test_invalid_config(self, model):
        with pytest.raises(ValueError):
            PredictionService(model, max_batch_size=0)
        with pytest.raises(ValueError):
            PredictionService(model, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            PredictionService(model, max_queue_depth=0)


class TestLifecycle:
    def test_stop_drains_in_flight(self, model, plans, reference):
        """stop(drain=True) settles every queued request with a result."""
        service = PredictionService(model, max_batch_size=16, max_wait_ms=50.0)
        service.start()
        handles = service.submit_many(plans)
        service.stop(drain=True)  # cuts the coalescing window short
        got = np.array([h.result(timeout=1.0) for h in handles])
        assert np.max(np.abs(got - reference)) <= 1e-9
        assert service.stats().queue_depth == 0

    def test_stop_drains_even_without_start(self, model, plans, reference):
        """A never-started service must still settle queued handles on
        stop(drain=True) — no future may be stranded forever."""
        service = PredictionService(model, max_batch_size=16)
        handles = service.submit_many(plans[:24])
        service.stop(drain=True)
        got = np.array([h.result(timeout=1.0) for h in handles])
        assert np.max(np.abs(got - reference[:24])) <= 1e-9
        assert service.stats().completed == 24

    def test_stop_without_drain_fails_pending(self, model, plans):
        service = PredictionService(model)  # not started: all stay queued
        handles = service.submit_many(plans[:8])
        service.stop(drain=False)
        for handle in handles:
            assert isinstance(handle.exception(timeout=1.0), ServiceStoppedError)
        assert service.stats().failed == 8

    def test_submit_after_stop_rejected(self, model, plans):
        """A stopped service reports itself as stopped — even when the
        submit would also fail routing, so clients never mistake a dead
        service for a transient failure."""
        service = PredictionService(model)
        service.start()
        service.stop()
        with pytest.raises(ServiceStoppedError):
            service.submit(plans[0])
        with pytest.raises(ServiceStoppedError):
            service.submit(plans[0], model="nope")  # not UnknownModelError
        with pytest.raises(ServiceStoppedError):
            service.start()

    def test_stop_idempotent_and_running_flag(self, model):
        service = PredictionService(model)
        assert not service.running
        service.start()
        service.start()  # idempotent while live
        assert service.running
        service.stop()
        service.stop()
        assert not service.running

    def test_concurrent_submit_during_stop_never_hangs(self, model, plans):
        """Submitters racing stop() either get a result or a typed error —
        no handle is left forever pending."""
        service = PredictionService(model, max_batch_size=8, max_wait_ms=0.5)
        service.start()
        outcomes = []
        lock = threading.Lock()

        def submitter():
            for plan in plans[:24]:
                try:
                    handle = service.submit(plan)
                except ServiceStoppedError:
                    with lock:
                        outcomes.append("rejected")
                    return
                value = handle.result(timeout=30)
                with lock:
                    outcomes.append(value)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.02)
        service.stop(drain=True)
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert outcomes  # at least some traffic went through
        for outcome in outcomes:
            assert outcome == "rejected" or outcome > 0.0

    def test_concurrent_stops_wait_for_settlement(self, model, plans):
        """A racing second stop() may not return while the first stopper's
        drain=True promise is unfulfilled — and may not fail those
        requests either."""
        service = PredictionService(model, max_batch_size=8)  # never started
        handles = service.submit_many(plans[:32])
        barrier = threading.Barrier(3)

        def stopper(drain):
            barrier.wait()
            service.stop(drain=drain, timeout=30)
            # Whoever returns first, settlement must already be complete.
            assert all(h.done() for h in handles)

        threads = [
            threading.Thread(target=stopper, args=(True,)),
            threading.Thread(target=stopper, args=(False,)),
        ]
        for t in threads:
            t.start()
        barrier.wait()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        # The first stopper's choice wins wholesale: either all 32 drained
        # to results or all 32 failed fast — never a mix.
        failed = [h for h in handles if h.exception() is not None]
        assert len(failed) in (0, 32)

    def test_empty_submit_many(self, model):
        service = PredictionService(model)
        assert service.submit_many([]) == []
        service.stop()


class TestPredictionSettlement:
    """Handles settle exactly once: a second ``_complete`` / ``_fail``
    is a service bug and must raise instead of silently overwriting the
    delivered value (and double-counting stats)."""

    def make_handle(self, plans):
        return Prediction(plans[0], "m", time.monotonic())

    def test_double_complete_raises(self, plans):
        handle = self.make_handle(plans)
        handle._complete(10.0, 1, time.monotonic())
        with pytest.raises(PredictionSettledError, match="completed"):
            handle._complete(20.0, 1, time.monotonic())
        assert handle.result() == 10.0  # first settlement stands

    def test_fail_after_complete_raises(self, plans):
        handle = self.make_handle(plans)
        handle._complete(10.0, 1, time.monotonic())
        with pytest.raises(PredictionSettledError, match="completed"):
            handle._fail(RuntimeError("late failure"))
        assert handle.exception() is None

    def test_complete_after_fail_raises(self, plans):
        handle = self.make_handle(plans)
        handle._fail(RuntimeError("boom"))
        with pytest.raises(PredictionSettledError, match="failed"):
            handle._complete(10.0, 1, time.monotonic())
        assert isinstance(handle.exception(), RuntimeError)

    def test_double_fail_raises(self, plans):
        handle = self.make_handle(plans)
        handle._fail(RuntimeError("first"))
        with pytest.raises(PredictionSettledError, match="failed"):
            handle._fail(RuntimeError("second"))
        assert str(handle.exception()) == "first"

    def test_settled_error_is_service_error(self, plans):
        handle = self.make_handle(plans)
        handle._complete(10.0, 1, time.monotonic())
        with pytest.raises(ServiceError):
            handle._complete(20.0, 1, time.monotonic())


class TestStatsConsistency:
    """ServiceStats is one consistent snapshot, not a racy read of live
    counters."""

    def test_snapshot_invariants_under_concurrent_traffic(self, model, plans):
        """4 submitters + 2 stats pollers: every snapshot must satisfy
        the conservation law submitted = completed + failed + in-flight,
        with monotone counters across successive polls."""
        service = PredictionService(model, max_batch_size=16, max_wait_ms=0.2)
        stop = threading.Event()
        errors = []

        def submitter(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    plan = plans[int(rng.integers(len(plans)))]
                    service.submit(plan).result(timeout=30)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        def poller():
            last = None
            try:
                while not stop.is_set():
                    s = service.stats()
                    in_flight = s.submitted - s.completed - s.failed
                    # queue_depth counts waiting requests; a batch being
                    # executed is in flight but already dequeued.
                    assert s.queue_depth <= in_flight
                    assert in_flight <= s.queue_depth + service.max_batch_size
                    assert s.failed == 0 and s.rejected == 0
                    if last is not None:
                        assert s.submitted >= last.submitted
                        assert s.completed >= last.completed
                        assert s.batches >= last.batches
                        assert s.outcomes_recorded >= last.outcomes_recorded
                    last = s
            except Exception as error:  # pragma: no cover
                errors.append(error)

        with service:
            threads = [
                threading.Thread(target=submitter, args=(i,)) for i in range(4)
            ] + [threading.Thread(target=poller) for _ in range(2)]
            for t in threads:
                t.start()
            time.sleep(1.0)
            stop.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        assert not errors
        final = service.stats()
        assert final.submitted == final.completed + final.failed
        assert final.submitted > 0 and final.failed == 0
