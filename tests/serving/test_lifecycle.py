"""Live model lifecycle: outcome recording, shadow deploy, zero-downtime
promotion, crash-resumable retraining (ISSUE 8).

The chaos-marked drills inject deterministic faults
(:mod:`repro.testing.faults`) into exact points of the
serve→observe→detect→retrain→promote cycle; everything replays
identically under the same seeds.
"""

import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QPPNet, QPPNetConfig, Trainer
from repro.core.trainer import fine_tune
from repro.evaluation.drift import DriftMonitor, DriftThresholds
from repro.featurize import Featurizer
from repro.serving import (
    InferenceSession,
    InvalidLifecycleTransition,
    LifecycleConfig,
    LifecycleError,
    LifecycleManager,
    LifecycleState,
    ModelRegistry,
    OutcomeError,
    Prediction,
    PredictionService,
    PromotionError,
    ShadowLog,
    ShadowSession,
)
from repro.serving.lifecycle import CANDIDATE_SUFFIX
from repro.serving.service import OutcomeLog, OutcomeRecord
from repro.testing import FaultySession, LatencyDrift, SimulatedCrash, kill_at_epoch
from repro.workload import Workbench

pytestmark = pytest.mark.lifecycle

DRIFT_FACTOR = 3.0


@pytest.fixture(scope="module")
def corpus():
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    return wb.generate(128, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def plans(corpus):
    return [s.plan for s in corpus]


@pytest.fixture(scope="module")
def model(corpus):
    """A decently-converged tiny model (the drills need its live error
    to be visibly better than the drifted regime's)."""
    featurizer = Featurizer().fit([s.plan for s in corpus])
    config = QPPNetConfig(
        hidden_layers=1, neurons=16, data_size=4, epochs=30, batch_size=32, seed=1
    )
    net = QPPNet(featurizer, config)
    Trainer(net, config).fit(corpus)
    return net


@pytest.fixture(scope="module")
def baseline_rel_error(model, corpus, plans):
    predicted = InferenceSession(model).predict_batch(plans)
    actual = np.array([s.latency_ms for s in corpus])
    return float(np.mean(np.abs(actual - predicted) / actual))


def make_monitor(baseline, plans=(), **thresholds):
    defaults = dict(error_ratio=1.4, ewma_alpha=0.1, min_observations=32)
    defaults.update(thresholds)
    return DriftMonitor(
        max(baseline, 0.05),
        thresholds=DriftThresholds(**defaults),
        known_signatures={p.structure_signature() for p in plans},
    )


def make_service(model, **kwargs):
    registry = ModelRegistry()
    registry.register_session("qpp", InferenceSession(model))
    kwargs.setdefault("max_batch_size", 64)
    kwargs.setdefault("max_wait_ms", 0.5)
    service = PredictionService(registry, default_model="qpp", **kwargs)
    return service, registry


def drifted_samples(n, seed, factor=DRIFT_FACTOR):
    """A deterministic drifted observed stream (fresh workbench so the
    module fixtures' simulator is never mutated)."""
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    wb.simulator = LatencyDrift(wb.simulator, factor=factor)
    return wb.generate(n, rng=np.random.default_rng(seed))


def serve_and_observe(service, samples):
    for s in samples:
        handle = service.submit(s.plan)
        handle.result(timeout=30)
        handle.observe(s.latency_ms)


# ----------------------------------------------------------------------
# Outcome recording (tentpole part 1)
# ----------------------------------------------------------------------
class TestOutcomeRecording:
    def test_observe_appends_record(self, model, corpus):
        sample = corpus[0]
        service, _ = make_service(model)
        with service:
            handle = service.submit(sample.plan)
            value = handle.result(timeout=30)
            record = handle.observe(sample.latency_ms)
        assert record.seq == 1
        assert record.predicted_ms == value
        assert record.observed_ms == sample.latency_ms
        assert record.model == "qpp"
        assert record.plan is sample.plan
        assert record.signature == sample.plan.structure_signature()
        assert record.relative_error == pytest.approx(
            abs(sample.latency_ms - value) / sample.latency_ms
        )
        assert handle.observed_ms == sample.latency_ms
        assert service.stats().outcomes_recorded == 1
        assert service.outcomes.snapshot() == [record]

    def test_double_observe_raises(self, model, corpus):
        service, _ = make_service(model)
        with service:
            handle = service.submit(corpus[0].plan)
            handle.result(timeout=30)
            handle.observe(100.0)
            with pytest.raises(OutcomeError, match="already recorded"):
                handle.observe(100.0)
        assert service.outcomes.total == 1

    def test_observe_pending_raises(self, model, corpus):
        service, _ = make_service(model)
        handle = Prediction(corpus[0].plan, "qpp", time.monotonic(), service=service)
        with pytest.raises(OutcomeError, match="pending"):
            handle.observe(100.0)

    def test_observe_failed_prediction_raises(self, model, corpus):
        service, _ = make_service(model)
        handle = Prediction(corpus[0].plan, "qpp", time.monotonic(), service=service)
        handle._fail(RuntimeError("boom"))
        with pytest.raises(OutcomeError, match="failed"):
            handle.observe(100.0)

    def test_detached_handle_raises(self, corpus):
        handle = Prediction(corpus[0].plan, "qpp", time.monotonic())
        handle._complete(1.0, 1, time.monotonic())
        with pytest.raises(OutcomeError, match="not attached"):
            handle.observe(100.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -5.0, "fast"])
    def test_invalid_actuals_raise(self, model, corpus, bad):
        service, _ = make_service(model)
        with service:
            handle = service.submit(corpus[0].plan)
            handle.result(timeout=30)
            with pytest.raises(OutcomeError):
                handle.observe(bad)
        assert service.outcomes.total == 0

    def test_log_bounded_with_durable_cursor(self, model, corpus):
        service, _ = make_service(model, outcome_log_size=8)
        with service:
            for sample in corpus[:20]:
                h = service.submit(sample.plan)
                h.result(timeout=30)
                h.observe(sample.latency_ms)
        log = service.outcomes
        assert log.total == 20
        assert len(log) == 8
        seqs = [r.seq for r in log.snapshot()]
        assert seqs == list(range(13, 21))
        records, dropped = log.since(15)
        assert [r.seq for r in records] == [16, 17, 18, 19, 20]
        assert dropped == 0
        assert log.since(20) == ([], 0)
        # Wrap-around: a consumer whose cursor fell behind the retention
        # window gets the evicted gap explicitly — seqs 1..12 are gone,
        # so since(5) returns retained 13..20 plus dropped 7 (seqs 6..12).
        records, dropped = log.since(5)
        assert [r.seq for r in records] == list(range(13, 21))
        assert dropped == 7
        records, dropped = log.since(0)
        assert [r.seq for r in records] == list(range(13, 21))
        assert dropped == 12
        assert service.stats().outcomes_recorded == 20

    def test_outcome_log_validation(self):
        with pytest.raises(ValueError):
            OutcomeLog(0)

    @settings(max_examples=60, deadline=None)
    @given(
        maxlen=st.integers(1, 12),
        restored_gaps=st.lists(st.integers(1, 4), max_size=16),
        appended=st.integers(0, 30),
        cursors=st.lists(st.integers(-2, 100), min_size=1, max_size=8),
    )
    def test_since_matches_a_scan_of_every_record(
        self, plans, maxlen, restored_gaps, appended, cursors
    ):
        """``since`` walks back from the newest record and stops at the
        cursor; it must return what a scan of every retained record
        returns, after eviction and after ``restore`` of records with
        ``seq`` gaps."""
        log = OutcomeLog(maxlen)
        restored, seq = [], 0
        for gap in restored_gaps:
            seq += gap
            restored.append(
                OutcomeRecord(
                    seq=seq, signature="s", predicted_ms=1.0, observed_ms=2.0,
                    model="qpp", timestamp=0.0, plan=plans[0],
                )
            )
        log.restore(restored)
        for _ in range(appended):
            log.record(
                signature="s", predicted_ms=1.0, observed_ms=2.0, model="qpp", plan=plans[0]
            )
        retained = log.snapshot()
        evicted = log.total - len(retained)
        for cursor in cursors:
            scan = [rec for rec in retained if rec.seq > cursor]
            assert log.since(cursor) == (scan, max(0, evicted - max(cursor, 0)))


# ----------------------------------------------------------------------
# Atomic session replacement (satellite: registry.replace_session)
# ----------------------------------------------------------------------
class TestReplaceSession:
    def test_swap_returns_retired(self, model, corpus):
        registry = ModelRegistry()
        first = registry.register("qpp", model)
        second = InferenceSession(model)
        retired = registry.replace_session("qpp", second)
        assert retired is first
        assert registry.session("qpp") is second
        assert registry.model("qpp") is second.model
        assert registry.names() == ["qpp"]

    def test_unknown_name_raises(self, model):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.replace_session("absent", InferenceSession(model))

    @pytest.mark.chaos
    def test_swap_race_against_live_drain_loop(self, model, plans):
        """Hammer replace_session while 2 submitter threads keep the
        drain loop busy: no request may ever fail or misroute."""
        session_a = InferenceSession(model)
        session_b = InferenceSession(model)
        registry = ModelRegistry()
        registry.register_session("qpp", session_a)
        service = PredictionService(
            registry, default_model="qpp", max_batch_size=16, max_wait_ms=0.2
        )
        results = []
        errors = []
        stop = threading.Event()

        def submitter(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    plan = plans[int(rng.integers(len(plans)))]
                    results.append(service.submit(plan).result(timeout=30))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        with service:
            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            current, other = session_a, session_b
            for _ in range(200):
                retired = registry.replace_session("qpp", other)
                assert retired is current
                current, other = other, current
            stop.set()
            for t in threads:
                t.join()
        assert not errors
        assert len(results) > 0 and np.isfinite(results).all()
        assert service.stats().failed == 0


# ----------------------------------------------------------------------
# Shadow serving
# ----------------------------------------------------------------------
class TestShadowSession:
    def test_primary_always_answers(self, model, corpus, plans):
        featurizer = model.featurizer
        other = QPPNet(
            featurizer,
            QPPNetConfig(hidden_layers=1, neurons=16, data_size=4, seed=99),
        )
        primary = InferenceSession(model)
        candidate = InferenceSession(other)
        log = ShadowLog()
        wrapper = ShadowSession(primary, candidate, log)
        served = np.asarray(wrapper.predict_batch(plans[:32]))
        expected = InferenceSession(model).predict_batch(plans[:32])
        assert np.array_equal(served, expected)
        assert wrapper.model is model
        assert log.requests == 32
        n, p50a, p99a, p50r, p99r = log.delta_stats()
        assert n == 32 and p99a >= p50a >= 0.0 and np.isfinite(p99r)

    def test_lookup_joins_by_identity(self, model, plans):
        primary = InferenceSession(model)
        candidate = InferenceSession(model)
        log = ShadowLog()
        wrapper = ShadowSession(primary, candidate, log)
        wrapper.predict_batch(plans[:4])
        pair = log.lookup(plans[0])
        assert pair is not None and pair[0] == pair[1]
        assert log.lookup(plans[10]) is None

    def test_candidate_failure_never_hurts_live_traffic(self, model, plans):
        primary = InferenceSession(model)
        candidate = FaultySession(InferenceSession(model), fail_every=1)
        log = ShadowLog()
        wrapper = ShadowSession(primary, candidate, log)
        served = np.asarray(wrapper.predict_batch(plans[:8]))
        assert np.isfinite(served).all()
        assert log.candidate_errors == 8
        assert log.delta_stats()[0] == 0  # no disagreement samples logged

    def test_shadow_log_bounds(self):
        log = ShadowLog(maxlen=4)

        class P:  # stand-in plans (identity only)
            pass

        kept = [P() for _ in range(8)]
        for p in kept:
            log.record_batch([p], [1.0], [2.0])
        assert log.requests == 8
        assert log.delta_stats()[0] == 4
        assert log.lookup(kept[0]) is None  # evicted from the index
        assert log.lookup(kept[-1]) == (1.0, 2.0)
        with pytest.raises(ValueError):
            ShadowLog(0)


# ----------------------------------------------------------------------
# State machine guards
# ----------------------------------------------------------------------
class TestStateMachine:
    def test_transition_table(self):
        ok = [
            ("live", "retraining"),
            ("retraining", "shadow"),
            ("retraining", "live"),
            ("shadow", "promoted"),
            ("shadow", "demoted"),
            ("promoted", "live"),
            ("promoted", "demoted"),
            ("demoted", "live"),
        ]
        for current, requested in ok:
            assert LifecycleState.check(current, requested) == requested
        bad = [
            ("live", "shadow"),
            ("live", "promoted"),
            ("shadow", "live"),
            ("demoted", "shadow"),
            ("promoted", "retraining"),
        ]
        for current, requested in bad:
            with pytest.raises(InvalidLifecycleTransition):
                LifecycleState.check(current, requested)

    def test_manager_requires_registered_model(self, model, tmp_path):
        registry = ModelRegistry()
        registry.register("qpp", model)
        registry.register("qpp-b", model)  # 2 models: no implied default
        service = PredictionService(registry, default_model=None)
        monitor = make_monitor(0.3)
        config = LifecycleConfig(checkpoint_dir=tmp_path)
        with pytest.raises(LifecycleError, match="no model name"):
            LifecycleManager(service, monitor, config)
        with pytest.raises(LifecycleError, match="not registered"):
            LifecycleManager(service, monitor, config, model="absent")

    def test_stage_methods_guard_state(self, model, tmp_path):
        service, _ = make_service(model)
        manager = LifecycleManager(
            service, make_monitor(0.3), LifecycleConfig(checkpoint_dir=tmp_path)
        )
        assert manager.state == LifecycleState.LIVE
        with pytest.raises(LifecycleError, match="retrained candidate"):
            manager.deploy_shadow()
        with pytest.raises(LifecycleError, match="only legal from 'shadow'"):
            manager.promote()
        with pytest.raises(LifecycleError, match="only legal from 'shadow' or"):
            manager.demote()
        with pytest.raises(LifecycleError, match="no shadow deployment"):
            manager.shadow_report()

    def test_retrain_requires_data(self, model, tmp_path):
        service, _ = make_service(model)
        manager = LifecycleManager(
            service,
            make_monitor(0.3),
            LifecycleConfig(checkpoint_dir=tmp_path, min_retrain_outcomes=8),
        )
        with pytest.raises(LifecycleError, match="analyzed outcomes"):
            manager.retrain()
        assert manager.state == LifecycleState.LIVE  # failed gate: no transition

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            LifecycleConfig(checkpoint_dir=tmp_path, fine_tune_epochs=0)
        with pytest.raises(ValueError):
            LifecycleConfig(checkpoint_dir=tmp_path, promote_margin=0.0)
        with pytest.raises(ValueError):
            LifecycleConfig(checkpoint_dir=tmp_path, poll_interval_s=0.0)


# ----------------------------------------------------------------------
# Durable retraining under chaos
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestKillMidRetrain:
    def test_crash_resumes_bitwise(self, model, baseline_rel_error, tmp_path):
        """SimulatedCrash mid-fine-tune; the resumed fit reproduces the
        uninterrupted run's parameters and loss trajectory bitwise —
        both on the same manager and on a fresh one (process death)."""
        service, _ = make_service(model)
        with service:
            serve_and_observe(service, drifted_samples(64, seed=9))
        monitor = make_monitor(baseline_rel_error)
        config = LifecycleConfig(
            checkpoint_dir=tmp_path / "crashed",
            fine_tune_epochs=6,
            min_retrain_outcomes=32,
            epoch_hook=kill_at_epoch(3),
        )
        manager = LifecycleManager(service, monitor, config)
        reference_model, reference_history = fine_tune(
            model,
            manager.training_samples(),
            epochs=6,
            checkpoint_dir=str(tmp_path / "reference"),
        )
        with pytest.raises(SimulatedCrash):
            manager.retrain()
        assert manager.state == LifecycleState.RETRAINING
        assert (tmp_path / "crashed" / "cycle-001").is_dir()

        # Same-manager resume, hook disarmed.
        manager.config.epoch_hook = None
        history = manager.retrain()
        candidate = manager._candidate.model
        for (key, ref), (_, got) in zip(
            sorted(reference_model.state_dict().items()),
            sorted(candidate.state_dict().items()),
        ):
            assert np.array_equal(ref, got), key
        assert history.train_loss == reference_history.train_loss

        # Fresh-manager resume over the same checkpoint dir + journal
        # (the "process died and restarted" shape).
        crashed_cfg = LifecycleConfig(
            checkpoint_dir=tmp_path / "fresh",
            fine_tune_epochs=6,
            min_retrain_outcomes=32,
            epoch_hook=kill_at_epoch(2),
        )
        crashed = LifecycleManager(service, monitor, crashed_cfg)
        with pytest.raises(SimulatedCrash):
            crashed.retrain()
        resumed_cfg = LifecycleConfig(
            checkpoint_dir=tmp_path / "fresh",
            fine_tune_epochs=6,
            min_retrain_outcomes=32,
        )
        resumed = LifecycleManager(service, monitor, resumed_cfg)
        resumed_history = resumed.retrain()
        for (key, ref), (_, got) in zip(
            sorted(reference_model.state_dict().items()),
            sorted(resumed._candidate.model.state_dict().items()),
        ):
            assert np.array_equal(ref, got), key
        assert resumed_history.train_loss == reference_history.train_loss
        service.stop()

    @pytest.mark.filterwarnings(
        # The SimulatedCrash escaping the lifecycle thread is the drill.
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_crash_kills_background_loop_not_service(
        self, model, baseline_rel_error, tmp_path
    ):
        """A SimulatedCrash in the background manager thread dies like a
        process would — but the serving path keeps answering."""
        service, _ = make_service(model)
        with service:
            samples = drifted_samples(64, seed=9)
            serve_and_observe(service, samples)
            monitor = make_monitor(baseline_rel_error)
            config = LifecycleConfig(
                checkpoint_dir=tmp_path,
                fine_tune_epochs=6,
                min_retrain_outcomes=32,
                poll_interval_s=0.01,
                epoch_hook=kill_at_epoch(2),
            )
            manager = LifecycleManager(service, monitor, config).start()
            deadline = time.monotonic() + 30
            while manager._thread is not None and manager._thread.is_alive():
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("background loop did not crash")
                time.sleep(0.01)
            assert manager.state == LifecycleState.RETRAINING
            # Live traffic is unaffected by the lifecycle thread's death.
            assert np.isfinite(service.submit(samples[0].plan).result(timeout=30))
            manager.stop()
        assert service.stats().failed == 0


# ----------------------------------------------------------------------
# The end-to-end drill (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestEndToEndDrill:
    def test_full_cycle_under_load(
        self, model, corpus, plans, baseline_rel_error, tmp_path
    ):
        """Synthetic drift → DriftReport fires → durable fine-tune →
        shadow with disagreement logged → promotion under 4 concurrent
        submitter threads with zero dropped/failed requests →
        stabilization back to live."""
        service, registry = make_service(model)
        # unseen_rate > 1 disables the structure detector: this drill's
        # trigger must come from the error detectors deterministically.
        monitor = make_monitor(baseline_rel_error, plans, unseen_rate=1.01)
        config = LifecycleConfig(
            checkpoint_dir=tmp_path,
            fine_tune_epochs=8,
            min_retrain_outcomes=48,
            shadow_min_outcomes=24,
            promote_margin=1.0,
            stabilize_outcomes=32,
        )
        with service:
            manager = LifecycleManager(service, monitor, config)

            # Phase A — in-distribution traffic: no trigger, state live.
            serve_and_observe(service, corpus[:48])
            report = manager.step()
            assert not report.triggered
            assert manager.state == LifecycleState.LIVE

            # Phase B — the simulator drifts (deterministically, 3x):
            # the monitor must fire.
            serve_and_observe(service, drifted_samples(96, seed=9))
            report = manager.poll()
            assert report.triggered
            assert DriftMonitor.MEAN_SHIFT in report.reasons
            assert report.error_ratio > 1.0

            # Phase C — step() reacts: durable retrain + shadow deploy.
            manager.step()
            assert manager.state == LifecycleState.SHADOW
            assert registry.names() == ["qpp", "qpp" + CANDIDATE_SUFFIX]
            assert isinstance(registry.session("qpp"), ShadowSession)

            # Shadowed traffic with outcomes: disagreement is journaled
            # and the outcome join shows the candidate adapting.
            serve_and_observe(service, drifted_samples(48, seed=11))
            manager.poll()
            shadow = manager.shadow_report()
            assert shadow.requests >= 48
            assert shadow.candidate_errors == 0
            assert shadow.observed_outcomes >= config.shadow_min_outcomes
            assert np.isfinite(shadow.p50_abs_delta_ms)
            assert shadow.p99_abs_delta_ms >= shadow.p50_abs_delta_ms > 0.0
            assert shadow.candidate_rel_error < shadow.primary_rel_error

            # Phase D — promote under concurrent load: 4 submitter
            # threads in flight; nothing may drop, fail or misroute.
            candidate_session = manager._candidate
            barrier = threading.Barrier(5)
            results, errors = [], []

            def submitter(seed):
                rng = np.random.default_rng(seed)
                barrier.wait()
                try:
                    for _ in range(40):
                        plan = plans[int(rng.integers(len(plans)))]
                        results.append(service.submit(plan).result(timeout=30))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=submitter, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            retired = manager.promote()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 160 and np.isfinite(results).all()
            assert manager.state == LifecycleState.PROMOTED
            assert isinstance(retired, ShadowSession)
            assert registry.session("qpp") is candidate_session
            assert registry.names() == ["qpp"]  # candidate alias retired
            stats = service.stats()
            assert stats.failed == 0 and stats.rejected == 0

            # Phase E — stabilization: the candidate's own error on the
            # drifted regime is in-distribution now; cycle settles live.
            stabilize = drifted_samples(48, seed=13)
            serve_and_observe(service, stabilize)
            manager.step()
            assert manager.state == LifecycleState.LIVE
            assert manager.cycle == 1
            states = [event[0] for event in manager.events]
            assert states == ["retraining", "shadow", "promoted", "live"]
        assert service.stats().failed == 0

    def test_promotion_rolls_back_when_candidate_drifts_worse(
        self, model, plans, baseline_rel_error, tmp_path
    ):
        """Demotion path: a candidate that regresses after promotion is
        rolled back to the retired primary, atomically."""
        service, registry = make_service(model)
        original = registry.session("qpp")
        monitor = make_monitor(baseline_rel_error, plans, unseen_rate=1.01)
        config = LifecycleConfig(
            checkpoint_dir=tmp_path,
            fine_tune_epochs=1,  # deliberately under-trained candidate
            min_retrain_outcomes=32,
            shadow_min_outcomes=8,
            stabilize_outcomes=64,
            cooldown_s=30.0,
        )
        with service:
            manager = LifecycleManager(service, monitor, config)
            serve_and_observe(service, drifted_samples(64, seed=9))
            manager.retrain()
            manager.deploy_shadow()
            manager.promote(force=True)
            assert manager.state == LifecycleState.PROMOTED
            # Post-promotion outcomes look terrible (5x drift now):
            # within the stabilization window, step() must roll back.
            serve_and_observe(service, drifted_samples(64, seed=17, factor=5.0))
            manager.step()
            assert manager.state == LifecycleState.DEMOTED
            assert registry.session("qpp") is original
            assert manager.cycle == 1
            # Cooldown holds the state at demoted for now.
            manager.step()
            assert manager.state == LifecycleState.DEMOTED
        assert service.stats().failed == 0

    def test_shadow_demotion_restores_primary(
        self, model, plans, baseline_rel_error, tmp_path
    ):
        service, registry = make_service(model)
        original = registry.session("qpp")
        monitor = make_monitor(baseline_rel_error, plans)
        config = LifecycleConfig(
            checkpoint_dir=tmp_path, fine_tune_epochs=1, min_retrain_outcomes=32
        )
        with service:
            manager = LifecycleManager(service, monitor, config)
            serve_and_observe(service, drifted_samples(48, seed=9))
            manager.retrain()
            manager.deploy_shadow()
            # Not enough outcome-joined evidence: the gate refuses.
            with pytest.raises(PromotionError, match="outcome-joined"):
                manager.promote()
            manager.demote()
            assert manager.state == LifecycleState.DEMOTED
            assert registry.session("qpp") is original
            assert registry.names() == ["qpp"]
        assert service.stats().failed == 0

    def test_background_manager_runs_the_cycle(
        self, model, corpus, plans, baseline_rel_error, tmp_path
    ):
        """The autonomous path: start() the manager, feed drifted
        outcomes, and the background thread walks the machine on its
        own — while live traffic keeps flowing."""
        service, _ = make_service(model)
        monitor = make_monitor(baseline_rel_error, plans)
        config = LifecycleConfig(
            checkpoint_dir=tmp_path,
            fine_tune_epochs=4,
            min_retrain_outcomes=48,
            shadow_min_outcomes=16,
            stabilize_outcomes=16,
            poll_interval_s=0.02,
        )
        with service:
            with LifecycleManager(service, monitor, config) as manager:
                deadline = time.monotonic() + 60
                stream_seed = 21
                while manager.cycle == 0:
                    if time.monotonic() > deadline:  # pragma: no cover
                        pytest.fail(
                            f"lifecycle did not complete a cycle "
                            f"(state={manager.state}, errors={manager.errors})"
                        )
                    serve_and_observe(service, drifted_samples(32, seed=stream_seed))
                    stream_seed += 1
                    time.sleep(0.05)
                # The loop may already be into its next cycle (drift keeps
                # flowing); any well-formed state is fine — completing a
                # full cycle is the property under test.
                assert manager.cycle >= 1
                assert manager.state in LifecycleState.TRANSITIONS
                assert not manager.errors
        assert service.stats().failed == 0
