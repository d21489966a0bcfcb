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

from repro.core import NonFiniteOutput, QPPNet, QPPNetConfig, plan_graph
from repro.featurize import Featurizer
from repro.plans.operators import LogicalType
from repro.plans.validate import PlanValidationError
from repro.serving import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    FallbackChain,
    InferenceSession,
    InvalidPlanError,
    ModelRegistry,
    NonFinitePrediction,
    PredictionService,
    ResiliencePolicy,
    ServiceError,
    default_fallback_chain,
    heuristic_latency_ms,
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

    def test_validation_can_be_disabled(self, model, plans):
        broken = copy.deepcopy(plans[0])
        del broken.props["Total Cost"]
        policy = ResiliencePolicy(validate_plans=False)
        with PredictionService(model, max_wait_ms=1.0, resilience=policy) as service:
            # No InvalidPlanError at the submit site: the plan is
            # admitted (the featurizer tolerates the missing property)
            # and the service keeps serving.
            handle = service.submit(broken)
            handle.result(timeout=30)
            assert service.stats().rejected == 0


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

    def test_isolation_disabled_fails_whole_batch(self, model, plans):
        faulty = FaultySession(InferenceSession(model), poison_plans=[plans[2]])
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        policy = ResiliencePolicy(poison_isolation=False)
        with PredictionService(
            registry, max_batch_size=16, max_wait_ms=2.0, resilience=policy
        ) as service:
            values, errors = run_service(service, plans[:8])
        assert len(errors) == 8 and not values


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

    def test_default_deadline_from_policy(self, model, plans):
        policy = ResiliencePolicy(default_deadline_ms=10_000.0)
        with PredictionService(model, max_wait_ms=1.0, resilience=policy) as service:
            handle = service.submit(plans[0])
            assert handle.deadline_at is not None
            assert handle.result(timeout=30) > 0


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
        policy = ResiliencePolicy(breaker_threshold=2, breaker_reset_ms=100.0, clock=clock)
        with PredictionService(
            registry, max_batch_size=4, max_wait_ms=0.5, resilience=policy
        ) as service:
            # Two failing batches trip the breaker.
            for _ in range(2):
                _, errors = run_service(service, plans[:4])
                assert len(errors) == 4
            assert service.stats().breaker_states["m"] == "open"
            with pytest.raises(CircuitOpenError) as exc_info:
                service.submit(plans[0], model="m")
            assert exc_info.value.retry_after_ms <= 100.0
            stats = service.stats()
            assert stats.breaker_rejected >= 1
            # Heal the model, let the reset window pass: the half-open
            # probe succeeds and closes the breaker.
            faulty.fail_every = 0
            clock.advance(0.2)
            assert service.stats().breaker_states["m"] == "half_open"
            value = service.predict(plans[0], model="m")
            assert value == reference[0]
            assert service.stats().breaker_states["m"] == "closed"

    def test_breaker_disabled_with_zero_threshold(self, model, plans):
        faulty = FaultySession(InferenceSession(model), fail_every=1)
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        policy = ResiliencePolicy(breaker_threshold=0)
        with PredictionService(
            registry, max_batch_size=4, max_wait_ms=0.5, resilience=policy
        ) as service:
            for _ in range(3):
                _, errors = run_service(service, plans[:4])
                assert len(errors) == 4  # keeps failing, never fast-rejects
            assert service.stats().breaker_states == {}


# ----------------------------------------------------------------------
# Tentpole: fallback chain
# ----------------------------------------------------------------------
class TestFallback:
    def test_heuristic_latency_uses_cost(self, plans):
        value = heuristic_latency_ms(plans[0], ms_per_cost_unit=0.01)
        assert value == pytest.approx(float(plans[0].props["Total Cost"]) * 0.01)

    def test_primary_failure_served_by_taped_reference(self, model, plans):
        faulty = FaultySession(InferenceSession(model), fail_every=1)
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        policy = ResiliencePolicy(
            breaker_threshold=0, fallback=default_fallback_chain()
        )
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

    def test_open_breaker_routes_to_fallback(self, model, plans):
        clock = FakeClock()
        faulty = FaultySession(InferenceSession(model), fail_every=1)
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        policy = ResiliencePolicy(
            breaker_threshold=1, breaker_reset_ms=10_000.0,
            fallback=default_fallback_chain(), clock=clock,
        )
        with PredictionService(
            registry, max_batch_size=8, max_wait_ms=0.5, resilience=policy
        ) as service:
            values, errors = run_service(service, plans[:8])
            assert errors == {}
            assert service.stats().breaker_states["m"] == "open"
            # Breaker now open: requests still complete, via the chain,
            # without touching the primary.
            calls_before = faulty.calls
            more_values, more_errors = run_service(service, plans[:8])
            stats = service.stats()
        assert more_errors == {}
        assert faulty.calls == calls_before
        assert stats.fallback_completed == 16
        taped = [model.predict(p) for p in plans[:8]]
        assert [more_values[i] for i in sorted(more_values)] == taped

    def test_chain_exhaustion_fails_with_primary_cause(self, model, plans):
        def broken_tier(session, tier_plans):
            raise RuntimeError("tier down")

        faulty = FaultySession(InferenceSession(model), fail_every=1)
        registry = ModelRegistry()
        registry.register_session("m", faulty)
        policy = ResiliencePolicy(
            breaker_threshold=0, fallback=FallbackChain([("broken", broken_tier)])
        )
        with PredictionService(
            registry, max_batch_size=4, max_wait_ms=0.5, resilience=policy
        ) as service:
            _, errors = run_service(service, plans[:4])
        assert len(errors) == 4
        for error in errors.values():
            assert isinstance(error.__cause__, InjectedFault)


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
