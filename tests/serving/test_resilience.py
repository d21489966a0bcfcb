"""Serving resilience: deadlines, poison isolation, breaker, fallback
(ISSUE 7: fault-tolerant serving).

The bitwise contract under test: whatever faults are injected, every
request the service *completes* carries a value bit-identical to a
``predict_batch`` over exactly the surviving request set — and when the
fault was transient (nothing poisoned), bit-identical to the fault-free
run.
"""

import copy

import numpy as np
import pytest

from repro.core import LevelPlan, NonFiniteOutput, QPPNet, QPPNetConfig, plan_graph
from repro.featurize import Featurizer
from repro.plans.operators import LogicalType
from repro.plans.validate import PlanValidationError
from repro.serving import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    InferenceSession,
    InvalidPlanError,
    ModelRegistry,
    NonFinitePrediction,
    PredictionService,
    ResiliencePolicy,
    ServiceError,
    heuristic_latency_ms,
)
from repro.serving.resilience import (
    BREAKER_RESET_MS,
    BREAKER_THRESHOLD,
    MS_PER_COST_UNIT,
    fallback_latencies,
)
from repro.testing import FaultySession, InjectedFault
from repro.workload import Workbench

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def corpus():
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    return wb.generate(64, rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def plans(corpus):
    return [s.plan for s in corpus]


def make_model(corpus, dtype="float64"):
    featurizer = Featurizer().fit([s.plan for s in corpus])
    return QPPNet(
        featurizer,
        QPPNetConfig(hidden_layers=2, neurons=16, data_size=4, dtype=dtype),
    )


@pytest.fixture(scope="module")
def model(corpus):
    return make_model(corpus)


@pytest.fixture(scope="module")
def reference(model, plans):
    return list(InferenceSession(model).predict_batch(plans))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def run_service(service, plans, model="m"):
    """Submit all plans, gather ``(values_by_index, errors_by_index)``."""
    handles = service.submit_many(plans, model=model)
    values, errors = {}, {}
    for i, handle in enumerate(handles):
        try:
            values[i] = handle.result(timeout=30)
        except BaseException as error:  # noqa: BLE001 — under test
            errors[i] = error
    return values, errors


# ----------------------------------------------------------------------
# Satellite: plan validation at the submit boundary
# ----------------------------------------------------------------------
class TestValidation:
    def test_invalid_plan_rejected(self, model, plans):
        broken = copy.deepcopy(plans[0])
        del broken.props["Total Cost"]
        with PredictionService(model, max_wait_ms=1.0) as service:
            with pytest.raises(InvalidPlanError) as exc_info:
                service.submit(broken)
            assert isinstance(exc_info.value.__cause__, PlanValidationError)
            assert isinstance(exc_info.value, (ServiceError, ValueError))
            assert service.stats().rejected == 1

    def test_submit_many_rejects_all_or_nothing(self, model, plans):
        broken = copy.deepcopy(plans[1])
        del broken.props["Plan Rows"]
        with PredictionService(model, max_wait_ms=1.0) as service:
            with pytest.raises(InvalidPlanError):
                service.submit_many([plans[0], broken, plans[2]])
            stats = service.stats()
            assert stats.submitted == 0
        assert stats.rejected == 3


# ----------------------------------------------------------------------
# Tentpole: poison isolation, bitwise survivor guarantee
# ----------------------------------------------------------------------
class TestPoisonIsolation:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_any_single_poison_position(self, corpus, plans, dtype):
        """Property sweep: a poison plan at ANY position fails alone;
        all other requests complete bitwise-equal to a batch of exactly
        the survivors — for both compute dtypes."""
        dmodel = make_model(corpus, dtype=dtype)
        rng = np.random.default_rng(11)
        positions = sorted(rng.choice(len(plans), size=6, replace=False))
        for position in positions:
            survivors = [p for i, p in enumerate(plans) if i != position]
            survivor_ref = list(InferenceSession(dmodel).predict_batch(survivors))
            faulty = FaultySession(
                InferenceSession(dmodel), poison_plans=[plans[position]]
            )
            registry = ModelRegistry()
            registry.register_session("m", faulty)
            with PredictionService(registry, max_batch_size=64, max_wait_ms=2.0) as service:
                values, errors = run_service(service, plans)
                stats = service.stats()
            assert set(errors) == {position}
            assert isinstance(errors[position], InjectedFault)
            assert [values[i] for i in sorted(values)] == survivor_ref
            assert stats.poison_isolated == 1
            assert stats.completed == len(plans) - 1

    def test_multiple_poisons_random_structures(self, model, plans):
        """Two poisons in one coalesced batch: both isolated, the rest
        bitwise-equal to the survivor-only batch."""
        bad = [3, 17]
        survivors = [p for i, p in enumerate(plans) if i not in bad]
        survivor_ref = list(InferenceSession(model).predict_batch(survivors))
        faulty = FaultySession(
            InferenceSession(model), poison_plans=[plans[i] for i in bad]
        )
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        with PredictionService(registry, max_batch_size=64, max_wait_ms=2.0) as service:
            values, errors = run_service(service, plans)
            stats = service.stats()
        assert set(errors) == set(bad)
        assert [values[i] for i in sorted(values)] == survivor_ref
        assert stats.poison_isolated == 2

    def test_nan_poison_rows_isolated(self, model, plans):
        """Duck-typed NaN rows become per-request NonFinitePrediction;
        survivors are bitwise-equal to the survivor-only batch."""
        bad = [0, 40]
        survivors = [p for i, p in enumerate(plans) if i not in bad]
        survivor_ref = list(InferenceSession(model).predict_batch(survivors))
        faulty = FaultySession(
            InferenceSession(model), nan_plans=[plans[i] for i in bad]
        )
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        with PredictionService(registry, max_batch_size=64, max_wait_ms=2.0) as service:
            values, errors = run_service(service, plans)
        assert set(errors) == set(bad)
        for index in bad:
            assert isinstance(errors[index], NonFinitePrediction)
            assert plans[index].structure_signature() in errors[index].signatures
        assert [values[i] for i in sorted(values)] == survivor_ref

    def test_transient_fault_every_nth_batch(self, model, plans, reference):
        """Acceptance: a transient fault injected into every Nth executed
        batch -> 100% of requests complete, bitwise-identical to the
        fault-free run, zero failures."""
        faulty = FaultySession(InferenceSession(model), fail_calls=())
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        with PredictionService(registry, max_batch_size=64, max_wait_ms=2.0) as service:
            for wave in range(6):
                if wave % 2 == 0:  # every 2nd wave's first attempt fails
                    faulty.fail_calls = frozenset({faulty.calls + 1})
                else:
                    faulty.fail_calls = frozenset()
                values, errors = run_service(service, plans)
                assert errors == {}
                assert [values[i] for i in sorted(values)] == reference
            stats = service.stats()
        assert stats.failed == 0
        assert stats.completed == 6 * len(plans)
        assert faulty.faults_injected == 3


# ----------------------------------------------------------------------
# Satellite: typed non-finite guard in the session itself
# ----------------------------------------------------------------------
class TestNonFiniteSession:
    def test_predict_batch_raises_typed(self, corpus, plans):
        poisoned_model = make_model(corpus)
        for param in poisoned_model.parameters():
            param.data.fill(np.nan)
        session = InferenceSession(poisoned_model)
        with pytest.raises(NonFinitePrediction) as exc_info:
            session.predict_batch(plans[:4])
        error = exc_info.value
        assert repr(poisoned_model) in str(error)
        assert plans[0].structure_signature() in error.signatures
        assert error.indices is not None and 0 in error.indices

    def test_predict_single_raises_typed(self, corpus, plans):
        poisoned_model = make_model(corpus)
        for param in poisoned_model.parameters():
            param.data.fill(np.nan)
        session = InferenceSession(poisoned_model)
        with pytest.raises(NonFinitePrediction):
            session.predict(plans[0])


class TestNonFiniteEveryEntryPoint:
    """NaN output biases: every predict entry point — session and model,
    batch and single — raises a typed error instead of returning NaN or
    the 0.01 ms floor (Python's ``max(0.01, nan)`` is 0.01)."""

    @staticmethod
    def poisoned(corpus, ltypes=None):
        model = make_model(corpus)
        for ltype, unit in model.units.items():
            if ltypes is None or ltype in ltypes:
                unit.net.modules[-1].bias.data.fill(np.nan)
        return model

    def test_session_predict_operators_batch_raises_typed(self, corpus, plans):
        session = InferenceSession(self.poisoned(corpus))
        with pytest.raises(NonFinitePrediction) as exc_info:
            session.predict_operators_batch(plans[:4])
        assert exc_info.value.indices == [0, 1, 2, 3]
        assert plans[0].structure_signature() in exc_info.value.signatures

    def test_session_predict_operators_raises_typed(self, corpus, plans):
        session = InferenceSession(self.poisoned(corpus))
        with pytest.raises(NonFinitePrediction):
            session.predict_operators(plans[0])

    @pytest.mark.parametrize("entry", ["predict", "predict_operators"])
    def test_model_entry_points_raise_typed(self, corpus, plans, entry):
        model = self.poisoned(corpus)
        with pytest.raises(NonFiniteOutput, match="non-finite"):
            getattr(model, entry)(plans[0])

    def test_one_except_clause_catches_every_entry_point(self, corpus, plans):
        assert issubclass(NonFinitePrediction, NonFiniteOutput)
        assert issubclass(NonFiniteOutput, ArithmeticError)
        model = self.poisoned(corpus)
        session = InferenceSession(model)
        calls = [
            lambda: session.predict_batch(plans[:3]),
            lambda: session.predict(plans[0]),
            lambda: session.predict_operators_batch(plans[:3]),
            lambda: session.predict_operators(plans[0]),
            lambda: model.predict(plans[0]),
            lambda: model.predict_operators(plans[0]),
        ]
        for call in calls:
            with pytest.raises(NonFiniteOutput):
                call()

    def test_operators_name_exactly_the_poisoned_plans(self, corpus, plans):
        """One poisoned unit type: only plans using it are named; the
        others still serve finite values through the batch path."""
        uses_sort = [LogicalType.SORT in plan_graph(p).types for p in plans]
        assert any(uses_sort) and not all(uses_sort)
        session = InferenceSession(self.poisoned(corpus, {LogicalType.SORT}))
        with pytest.raises(NonFinitePrediction) as exc_info:
            session.predict_operators_batch(plans)
        assert exc_info.value.indices == [i for i, u in enumerate(uses_sort) if u]
        clean = [p for p, u in zip(plans, uses_sort) if not u]
        values = session.predict_operators_batch(clean)
        assert all(np.isfinite(v).all() for v in values)

    def test_plan_by_plan_batch_names_exactly_the_poisoned_plans(self, corpus, plans):
        """A batch small enough to run plan by plan names the same plans,
        batch-relative, from both entry points, and counts none served."""
        uses_sort = [LogicalType.SORT in plan_graph(p).types for p in plans]
        sort, clean = plans[uses_sort.index(True)], plans[uses_sort.index(False)]
        batch = [clean, sort, clean, sort]
        assert len(batch) <= InferenceSession.MAX_PLAN_BY_PLAN
        session = InferenceSession(self.poisoned(corpus, {LogicalType.SORT}))
        for entry in (session.predict_batch, session.predict_operators_batch):
            with pytest.raises(NonFinitePrediction) as exc_info:
                entry(batch)
            assert exc_info.value.indices == [1, 3]
            assert exc_info.value.signatures == [sort.structure_signature()] * 2
        assert session.requests_served == 0
        assert np.isfinite(session.predict_batch([clean, clean])).all()
        assert session.requests_served == 2


# ----------------------------------------------------------------------
# Tentpole: deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_nonpositive_deadline_rejected(self, model, plans):
        with PredictionService(model, max_wait_ms=1.0) as service:
            with pytest.raises(ValueError):
                service.submit(plans[0], deadline_ms=0.0)

    def test_expired_in_queue_shed_before_execution(self, model, plans):
        """A slow batch ahead makes later tiny-deadline requests expire;
        they fail typed, cheap, and counted."""
        slow = FaultySession(InferenceSession(model), extra_latency_ms=60.0)
        registry = ModelRegistry()
        registry.register_session("m", slow)
        with PredictionService(registry, max_batch_size=4, max_wait_ms=0.5) as service:
            handles = service.submit_many(plans[:16], model="m", deadline_ms=15.0)
            outcomes = []
            for handle in handles:
                try:
                    handle.result(timeout=30)
                    outcomes.append("ok")
                except DeadlineExceededError as error:
                    assert error.shed_at == "execution"
                    assert error.deadline_ms == pytest.approx(15.0)
                    outcomes.append("expired")
            stats = service.stats()
        assert "expired" in outcomes
        assert stats.deadline_expired == outcomes.count("expired")
        assert stats.failed == stats.deadline_expired

    def test_admission_shed_on_predicted_wait(self, model, plans):
        """When the service's own wait prediction already exceeds the
        deadline, the request is rejected at submit."""
        with PredictionService(model, max_wait_ms=1.0) as service:
            service._drain_ms_per_request = 50.0  # pretend a slow model
            with pytest.raises(DeadlineExceededError) as exc_info:
                service.submit(plans[0], deadline_ms=5.0)
            assert exc_info.value.shed_at == "admission"
            stats = service.stats()
            assert stats.deadline_rejected == 1
            assert stats.rejected == 1
            # A generous deadline still gets through.
            assert service.predict(plans[0], deadline_ms=10_000.0) > 0

    def test_admission_charges_no_linger_by_default(self, model, plans):
        """The default service dispatches on arrival, so an idle one
        predicts only the drain cost: a 1 ms deadline gets in."""
        service = PredictionService(model)  # never started: nothing drains
        service._drain_ms_per_request = 0.1
        service.submit(plans[0], deadline_ms=1.0)
        assert service.stats().deadline_rejected == 0
        service.stop(drain=False)

    def test_admission_charges_what_remains_of_the_window(self, model, plans):
        """Behind a request queued ~45 ms into a 50 ms window, a new one
        waits ~5 ms more, not a fresh window."""
        service = PredictionService(model, max_wait_ms=50.0)
        service._drain_ms_per_request = 0.1
        service.submit(plans[0])
        service._queue[0].submitted_at -= 0.045
        service.submit(plans[1], deadline_ms=20.0)
        assert service.stats().deadline_rejected == 0
        service.stop(drain=False)

    def test_admission_charges_the_full_window_on_an_empty_queue(self, model, plans):
        service = PredictionService(model, max_wait_ms=50.0)
        service._drain_ms_per_request = 0.1
        with pytest.raises(DeadlineExceededError) as exc_info:
            service.submit(plans[0], deadline_ms=20.0)
        assert exc_info.value.shed_at == "admission"
        service.stop(drain=False)


# ----------------------------------------------------------------------
# Tentpole: circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_breaker_unit_lifecycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, reset_ms=100.0, clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.retry_after_ms() == pytest.approx(100.0)
        clock.advance(0.05)
        assert not breaker.allow()
        clock.advance(0.06)
        assert breaker.state == "half_open" and breaker.allow()
        breaker.record_failure()  # failed probe -> straight back open
        assert breaker.state == "open"
        clock.advance(0.2)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.record_failure()  # success reset the consecutive count
        assert breaker.state == "closed"

    def test_breaker_opens_and_recovers_in_service(self, model, plans, reference):
        clock = FakeClock()
        faulty = FaultySession(InferenceSession(model), fail_every=1)
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        policy = ResiliencePolicy(clock=clock)
        with PredictionService(
            registry, max_batch_size=4, max_wait_ms=0.5, resilience=policy
        ) as service:
            # BREAKER_THRESHOLD failing batches trip the breaker.
            for _ in range(BREAKER_THRESHOLD):
                _, errors = run_service(service, plans[:4])
                assert len(errors) == 4
            assert service.stats().breaker_states["m"] == "open"
            with pytest.raises(CircuitOpenError) as exc_info:
                service.submit(plans[0], model="m")
            assert exc_info.value.retry_after_ms <= BREAKER_RESET_MS
            stats = service.stats()
            assert stats.breaker_rejected >= 1
            # Heal the model, let the reset window pass: the half-open
            # probe succeeds and closes the breaker.
            faulty.fail_every = 0
            clock.advance(2 * BREAKER_RESET_MS / 1e3)
            assert service.stats().breaker_states["m"] == "half_open"
            value = service.predict(plans[0], model="m")
            assert value == reference[0]
            assert service.stats().breaker_states["m"] == "closed"


# ----------------------------------------------------------------------
# Tentpole: fallback ladder
# ----------------------------------------------------------------------
class TestFallback:
    def test_heuristic_latency_uses_cost(self, plans):
        value = heuristic_latency_ms(plans[0])
        assert value == pytest.approx(
            float(plans[0].props["Total Cost"]) * MS_PER_COST_UNIT
        )

    def test_primary_failure_served_by_taped_reference(self, model, plans):
        faulty = FaultySession(InferenceSession(model), fail_every=1)
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        policy = ResiliencePolicy(fallback=True)
        with PredictionService(
            registry, max_batch_size=8, max_wait_ms=0.5, resilience=policy
        ) as service:
            values, errors = run_service(service, plans[:8])
            stats = service.stats()
        assert errors == {}
        taped = [model.predict(p) for p in plans[:8]]
        assert [values[i] for i in sorted(values)] == taped
        assert stats.fallback_completed == 8
        assert stats.failed == 0

    def test_taped_tier_survives_broken_level_plan(self, model, plans, monkeypatch):
        """The taped tier shares no code with the fused executor: with
        every LevelPlan forward broken, it still serves the reference."""
        expected = [model.predict(p) for p in plans[:8]]

        def broken(self, features):
            raise RuntimeError("level plan down")

        monkeypatch.setattr(LevelPlan, "forward_inference", broken)
        session = InferenceSession(model)
        with pytest.raises(RuntimeError, match="level plan down"):
            session.predict_batch(plans[:8])
        values = fallback_latencies(session, plans[:8])
        assert values == expected

    def test_open_breaker_routes_to_fallback(self, model, plans):
        clock = FakeClock()
        faulty = FaultySession(InferenceSession(model), fail_every=1)
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        policy = ResiliencePolicy(fallback=True, clock=clock)
        with PredictionService(
            registry, max_batch_size=8, max_wait_ms=0.5, resilience=policy
        ) as service:
            for _ in range(BREAKER_THRESHOLD):
                values, errors = run_service(service, plans[:8])
                assert errors == {}
            assert service.stats().breaker_states["m"] == "open"
            # Breaker now open: requests still complete, via the
            # ladder, without touching the primary.
            calls_before = faulty.calls
            more_values, more_errors = run_service(service, plans[:8])
            stats = service.stats()
        assert more_errors == {}
        assert faulty.calls == calls_before
        assert stats.fallback_completed == 8 * (BREAKER_THRESHOLD + 1)
        taped = [model.predict(p) for p in plans[:8]]
        assert [more_values[i] for i in sorted(more_values)] == taped

    def test_last_rung_serves_the_cost_heuristic(self, model, plans, monkeypatch):
        """Primary and taped rung both down: every request still
        completes through the service, with the optimizer-cost
        heuristic."""

        def broken(self, plan):
            raise RuntimeError("taped reference down")

        monkeypatch.setattr(QPPNet, "predict", broken)
        faulty = FaultySession(InferenceSession(model), fail_every=1)
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        with PredictionService(
            registry,
            max_batch_size=8,
            max_wait_ms=0.5,
            resilience=ResiliencePolicy(fallback=True),
        ) as service:
            values, errors = run_service(service, plans[:16])
            stats = service.stats()
        assert errors == {}
        heuristic = [heuristic_latency_ms(p) for p in plans[:16]]
        assert [values[i] for i in sorted(values)] == heuristic
        assert stats.fallback_completed == 16
        assert stats.failed == 0


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------
class TestStats:
    def test_happy_path_counters_stay_zero(self, model, plans, reference):
        # One burst <= max_batch_size coalesces into exactly one batch,
        # so the bitwise comparison against the full-batch reference holds.
        with PredictionService(model, max_batch_size=len(plans), max_wait_ms=1.0) as service:
            values, errors = run_service(service, plans, model=None)
            stats = service.stats()
        assert errors == {}
        assert [values[i] for i in sorted(values)] == reference
        assert stats.deadline_rejected == 0
        assert stats.deadline_expired == 0
        assert stats.poison_isolated == 0
        assert stats.fallback_completed == 0
        assert stats.breaker_rejected == 0
        assert all(state == "closed" for state in stats.breaker_states.values())
