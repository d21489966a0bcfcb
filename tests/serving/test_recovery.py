"""Cold-restart recovery drills: the process dies at arbitrary points —
mid-observe, mid-snapshot, mid-retrain, mid-promotion — and
``ServiceRecovery`` rebuilds the stack from the state directory with
drift-detector state identical to an uninterrupted run and interrupted
fine-tunes resumed bitwise (ISSUE 10 acceptance criteria)."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import QPPNet, QPPNetConfig, Trainer
from repro.core.checkpoint import load_verified_json
from repro.core.trainer import fine_tune
from repro.evaluation.drift import DriftMonitor, DriftThresholds
from repro.featurize import Featurizer
from repro.serving import (
    InferenceSession,
    LifecycleConfig,
    LifecycleError,
    LifecycleManager,
    LifecycleState,
    ModelRegistry,
    PredictionService,
    PromotionError,
    RecoveryError,
    ServiceRecovery,
)
from repro.serving import lifecycle
from repro.serving.recovery import DRIFT_SNAPSHOT_NAME, MANIFEST_NAME
from repro.testing import (
    LatencyDrift,
    SimulatedCrash,
    failing_fsync,
    flip_byte,
    kill_at_epoch,
    torn_tail,
)
from repro.workload import Workbench

pytestmark = [pytest.mark.chaos, pytest.mark.lifecycle]

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
    return max(float(np.mean(np.abs(actual - predicted) / actual)), 0.05)


def thresholds(**overrides):
    defaults = dict(error_ratio=1.4, ewma_alpha=0.1, min_observations=32)
    defaults.update(overrides)
    return DriftThresholds(**defaults)


def make_stack(state_dir, model, plans, baseline, **lifecycle_kwargs):
    defaults = dict(
        fsync_every=1,  # the drills kill without closing: every record durable
        min_retrain_outcomes=32,
        fine_tune_epochs=4,
        shadow_min_outcomes=8,
        drift_snapshot_every=32,
    )
    defaults.update(lifecycle_kwargs)
    return ServiceRecovery.create(
        state_dir,
        model,
        baseline_rel_error=baseline,
        thresholds=thresholds(),
        known_signatures={p.structure_signature() for p in plans},
        **defaults,
    )


def drifted_samples(n, seed, factor=DRIFT_FACTOR):
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    wb.simulator = LatencyDrift(wb.simulator, factor=factor)
    return wb.generate(n, rng=np.random.default_rng(seed))


def serve_and_observe(service, samples):
    for s in samples:
        handle = service.submit(s.plan)
        handle.result(timeout=30)
        handle.observe(s.latency_ms)


def spy_manifests(monkeypatch):
    """Record ``(state, qpp bundle, cycle)`` of every manifest published
    from now on (at the rename that makes it visible, whoever writes it)."""
    published = []
    real_replace = os.replace

    def replace(src, dst, *args, **kwargs):
        if Path(dst).name == MANIFEST_NAME:
            payload = json.loads(Path(src).read_text())["payload"]
            published.append(
                (payload["state"], payload["models"]["qpp"], payload["cycle"])
            )
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    return published


def reference_monitor(plans, baseline, records):
    """What an uninterrupted monitor fed exactly ``records`` holds."""
    monitor = DriftMonitor(
        baseline,
        thresholds=thresholds(),
        known_signatures={p.structure_signature() for p in plans},
    )
    for rec in records:
        monitor.observe(rec.predicted_ms, rec.observed_ms, rec.signature)
    return monitor


# ----------------------------------------------------------------------
# First boot and unrecoverable damage
# ----------------------------------------------------------------------
class TestCreateAndErrors:
    def test_create_publishes_durable_layout(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        assert manifest["state"] == LifecycleState.LIVE
        assert manifest["cycle"] == 0
        assert manifest["models"] == {"qpp": "models/qpp/cycle-000"}
        assert (tmp_path / "models" / "qpp" / "cycle-000").is_dir()
        assert manifest["lifecycle"]["fine_tune_epochs"] == 4
        with stack.service:
            value = stack.service.submit(plans[0]).result(timeout=30)
        assert np.isfinite(value)
        stack.journal.close()

    def test_recover_without_manifest_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no manifest"):
            ServiceRecovery.recover(tmp_path)

    def test_recover_corrupt_manifest_raises(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        stack.journal.close()
        flip_byte(tmp_path / MANIFEST_NAME, -20)  # rot inside the payload
        with pytest.raises(RecoveryError, match="failed verification"):
            ServiceRecovery.recover(tmp_path)

    def test_recover_missing_bundle_raises(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        import shutil

        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        stack.journal.close()
        shutil.rmtree(tmp_path / "models")
        with pytest.raises(RecoveryError, match="bundle"):
            ServiceRecovery.recover(tmp_path)


# ----------------------------------------------------------------------
# Kill during observe: drift state identical to the uninterrupted run
# ----------------------------------------------------------------------
class TestKillDuringObserve:
    def test_snapshot_plus_suffix_restores_identical_state(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """Crash after a snapshot with un-polled journal suffix: replay
        covers only the suffix past the cursor, and the detectors land
        exactly where the uninterrupted process would."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:48])
            stack.manager.poll()  # 48 >= drift_snapshot_every: snapshot lands
            assert stack.manager.cursor == 48
            assert (tmp_path / DRIFT_SNAPSHOT_NAME).exists()
            serve_and_observe(stack.service, drifted_samples(24, seed=9))
            # kill -9 here: no close, no final poll.

        recovered = ServiceRecovery.recover(tmp_path)
        report = recovered.report
        assert report.snapshot_used
        assert report.snapshot_cursor == 48
        assert report.suffix_observed == 24
        assert report.corrupt_records == 0 and report.corrupt_segments == 0

        # The uninterrupted run: the original manager finally polls.
        stack.manager.poll()
        assert recovered.monitor.state_dict() == stack.monitor.state_dict()
        assert recovered.manager.cursor == stack.manager.cursor == 72
        assert recovered.manager.state == LifecycleState.LIVE

        # And the rebuilt stack is live: serving + outcome seq continue.
        with recovered.service:
            handle = recovered.service.submit(plans[0])
            handle.result(timeout=30)
            rec = handle.observe(100.0)
        assert rec.seq == 73
        recovered.journal.close()
        stack.journal.close()

    def test_no_snapshot_full_journal_replay(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """Crash before the first snapshot: the whole journal replays
        through a cold monitor — same final state, just more work."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:20])  # < snapshot_every
        recovered = ServiceRecovery.recover(tmp_path)
        assert not recovered.report.snapshot_used
        assert recovered.report.snapshot_cursor == 0
        assert recovered.report.suffix_observed == 20
        reference = reference_monitor(
            plans, baseline_rel_error, stack.service.outcomes.snapshot()
        )
        assert recovered.monitor.state_dict() == reference.state_dict()
        recovered.journal.close()
        stack.journal.close()

    def test_corrupt_snapshot_degrades_to_full_replay(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """Bit rot in the drift snapshot: recovery falls back to the
        manifest baseline + full replay, never an exception — and still
        converges to the identical detector state."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:48])
            stack.manager.poll()
            serve_and_observe(stack.service, drifted_samples(16, seed=9))
        flip_byte(tmp_path / DRIFT_SNAPSHOT_NAME, -10)
        recovered = ServiceRecovery.recover(tmp_path)
        assert not recovered.report.snapshot_used
        reference = reference_monitor(
            plans, baseline_rel_error, stack.service.outcomes.snapshot()
        )
        assert recovered.monitor.state_dict() == reference.state_dict()
        recovered.journal.close()
        stack.journal.close()

    def test_kill_mid_snapshot_write_keeps_previous_snapshot(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """Death between temp-write and rename: the dot-tmp garbage is
        invisible to recovery, the previous published snapshot wins."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:40])
            stack.manager.poll()  # snapshot at cursor 40
            serve_and_observe(stack.service, corpus[40:50])
        # Simulate the crash landing mid-atomic-write of the NEXT snapshot.
        (tmp_path / f".{DRIFT_SNAPSHOT_NAME}.tmp").write_bytes(b"\x00garbage")
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.report.snapshot_used
        assert recovered.report.snapshot_cursor == 40
        assert recovered.report.suffix_observed == 10
        stack.manager.poll()
        assert recovered.monitor.state_dict() == stack.monitor.state_dict()
        recovered.journal.close()
        stack.journal.close()


# ----------------------------------------------------------------------
# Kill during journal append (torn tail) and sick disks
# ----------------------------------------------------------------------
class TestKillDuringAppend:
    def test_torn_tail_loses_exactly_the_last_record(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:30])
        segment = stack.journal.segments()[-1]
        torn_tail(segment, drop_bytes=25)  # kill -9 mid-append
        recovered = ServiceRecovery.recover(tmp_path)
        report = recovered.report
        assert report.torn_tail_bytes > 0
        assert report.replayed_records == 29
        assert report.max_seq == 29
        reference = reference_monitor(
            plans, baseline_rel_error, stack.service.outcomes.snapshot()[:29]
        )
        assert recovered.monitor.state_dict() == reference.state_dict()
        # Appends continue cleanly past the repaired tail.
        with recovered.service:
            handle = recovered.service.submit(plans[0])
            handle.result(timeout=30)
            assert handle.observe(50.0).seq == 30
        recovered.journal.close()
        stack.journal.close()

    def test_injected_fsync_errors_never_kill_serving_or_recovery(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """A disk that fails every other fsync: serving completes every
        request, the journal degrades to its io_errors counter, and
        recovery rebuilds from whatever made it to disk — no exception
        anywhere."""
        stack = ServiceRecovery.create(
            tmp_path,
            model,
            baseline_rel_error=baseline_rel_error,
            thresholds=thresholds(),
            known_signatures={p.structure_signature() for p in plans},
            fsync_every=1,
            fsync_fn=failing_fsync(every=2),
            min_retrain_outcomes=32,
        )
        with stack.service:
            serve_and_observe(stack.service, corpus[:24])
        assert stack.service.outcomes.total == 24  # serving never degraded
        assert stack.journal.io_errors > 0
        recovered = ServiceRecovery.recover(tmp_path)
        # A failed fsync flags the record non-durable against power loss
        # (append returned False, io_errors counted) but the bytes were
        # written and flushed — absent an actual power cut replay sees them.
        assert recovered.report.replayed_records == 24
        assert recovered.report.corrupt_records == 0
        with recovered.service:
            assert np.isfinite(
                recovered.service.submit(plans[0]).result(timeout=30)
            )
        recovered.journal.close()
        stack.journal.close()

    def test_failed_manifest_and_snapshot_writes_degrade_to_counters(
        self, tmp_path, model, corpus, plans, baseline_rel_error, monkeypatch
    ):
        """A disk that stops taking the manager's atomic writes: the
        state machine still advances, both counters count, the last
        good manifest and snapshot stay valid, and recovery works."""
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        manager = stack.manager
        with stack.service:
            serve_and_observe(stack.service, corpus[:40])
            manager.poll()  # 40 >= drift_snapshot_every: snapshot lands
            good_manifest = load_verified_json(tmp_path / MANIFEST_NAME)
            good_snapshot = load_verified_json(tmp_path / DRIFT_SNAPSHOT_NAME)

            def sick_disk(path, payload):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(lifecycle, "atomic_write_json", sick_disk)
            serve_and_observe(stack.service, drifted_samples(40, seed=9))
            manager.poll()  # past drift_snapshot_every again
            manager.retrain()
            manager.deploy_shadow()
            manager.demote()
        assert [state for state, _ in manager.events] == [
            LifecycleState.RETRAINING,
            LifecycleState.SHADOW,
            LifecycleState.DEMOTED,
        ]
        assert manager.snapshot_errors == 1
        assert manager.manifest_errors == 3
        assert load_verified_json(tmp_path / MANIFEST_NAME) == good_manifest
        assert load_verified_json(tmp_path / DRIFT_SNAPSHOT_NAME) == good_snapshot

        monkeypatch.undo()
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.report.manifest_state == LifecycleState.LIVE
        assert recovered.report.snapshot_used
        assert recovered.report.snapshot_cursor == 40
        assert recovered.report.suffix_observed == 40
        assert recovered.manager.cursor == manager.cursor == 80
        recovered.journal.close()
        stack.journal.close()


# ----------------------------------------------------------------------
# Kill mid-retrain: bitwise resume through recovery (acceptance)
# ----------------------------------------------------------------------
class TestKillMidRetrain:
    def test_recovered_manager_resumes_fine_tune_bitwise(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        state_dir = tmp_path / "state"
        stack = make_stack(
            state_dir,
            model,
            plans,
            baseline_rel_error,
            epoch_hook=kill_at_epoch(2),
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(64, seed=9))
            stack.manager.poll()
        # The uninterrupted reference fit over the same observed stream.
        reference_model, reference_history = fine_tune(
            model,
            stack.manager.training_samples(),
            epochs=4,
            checkpoint_dir=str(tmp_path / "reference"),
        )
        with pytest.raises(SimulatedCrash):
            stack.manager.retrain()
        # The durable record already says where the dead process was.
        manifest = load_verified_json(state_dir / MANIFEST_NAME)
        assert manifest["state"] == LifecycleState.RETRAINING
        assert (state_dir / "checkpoints" / "cycle-001").is_dir()

        recovered = ServiceRecovery.recover(state_dir)
        assert recovered.report.manifest_state == LifecycleState.RETRAINING
        assert recovered.report.restored_state == LifecycleState.RETRAINING
        assert recovered.manager.state == LifecycleState.RETRAINING
        # epoch_hook is not JSON: the persisted config resumes without it.
        history = recovered.manager.retrain()
        candidate = recovered.manager._candidate.model
        for (key, ref), (_, got) in zip(
            sorted(reference_model.state_dict().items()),
            sorted(candidate.state_dict().items()),
        ):
            assert np.array_equal(ref, got), key
        assert history.train_loss == reference_history.train_loss
        recovered.journal.close()
        stack.journal.close()

    def test_repeated_plans_resume_bitwise(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        """Plans observed twice: replay decodes every record into a new
        plan object, so the recovered stream must not depend on plan
        identity — same 64 samples live and replayed, same fit."""
        state_dir = tmp_path / "state"
        stack = make_stack(
            state_dir,
            model,
            plans,
            baseline_rel_error,
            epoch_hook=kill_at_epoch(2),
        )
        drifted = drifted_samples(32, seed=9)
        with stack.service:
            serve_and_observe(stack.service, drifted + drifted)
            stack.manager.poll()
        samples = stack.manager.training_samples()
        assert len(samples) == 64
        reference_model, reference_history = fine_tune(
            model, samples, epochs=4, checkpoint_dir=str(tmp_path / "reference")
        )
        with pytest.raises(SimulatedCrash):
            stack.manager.retrain()

        recovered = ServiceRecovery.recover(state_dir)
        assert len(recovered.manager.training_samples()) == 64
        history = recovered.manager.retrain()
        candidate = recovered.manager._candidate.model
        for (key, ref), (_, got) in zip(
            sorted(reference_model.state_dict().items()),
            sorted(candidate.state_dict().items()),
        ):
            assert np.array_equal(ref, got), key
        assert history.train_loss == reference_history.train_loss
        recovered.journal.close()
        stack.journal.close()


# ----------------------------------------------------------------------
# Crashes later in the cycle: state mapping and durable promotion
# ----------------------------------------------------------------------
class TestLifecycleStateMapping:
    def test_crash_in_shadow_recovers_into_retraining(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            stack.manager.poll()
            stack.manager.retrain()
            stack.manager.deploy_shadow()
            assert stack.manager.state == LifecycleState.SHADOW
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.report.manifest_state == LifecycleState.SHADOW
        assert recovered.manager.state == LifecycleState.RETRAINING
        # The candidate is re-derivable: the cycle completes post-restart.
        recovered.manager.retrain()
        recovered.manager.deploy_shadow()
        assert recovered.manager.state == LifecycleState.SHADOW
        recovered.journal.close()
        stack.journal.close()

    def test_promotion_is_durable_and_crash_settles_live(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            stack.manager.poll()
            stack.manager.retrain()
            candidate_state = {
                k: v.copy()
                for k, v in stack.manager._candidate.model.state_dict().items()
            }
            stack.manager.deploy_shadow()
            stack.manager.promote(force=True)
            assert stack.manager.state == LifecycleState.PROMOTED
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        assert manifest["models"]["qpp"] == "models/qpp/cycle-001"
        assert (tmp_path / "models" / "qpp" / "cycle-001").is_dir()

        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.report.manifest_state == LifecycleState.PROMOTED
        assert recovered.manager.state == LifecycleState.LIVE
        # The model serving after restart IS the promoted candidate.
        served = recovered.service.registry.model("qpp")
        for key, ref in sorted(candidate_state.items()):
            assert np.array_equal(ref, served.state_dict()[key]), key
        recovered.journal.close()
        stack.journal.close()

    def test_demotion_rolls_the_bundle_pointer_back(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            stack.manager.poll()
            stack.manager.retrain()
            stack.manager.deploy_shadow()
            stack.manager.promote(force=True)
            stack.manager.demote()  # post-promotion rollback
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        assert manifest["models"]["qpp"] == "models/qpp/cycle-000"
        assert manifest["state"] == LifecycleState.DEMOTED
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.manager.state == LifecycleState.LIVE
        served = recovered.service.registry.model("qpp")
        for key, ref in sorted(model.state_dict().items()):
            assert np.array_equal(ref, served.state_dict()[key]), key
        recovered.journal.close()
        stack.journal.close()

    def test_refused_or_illegal_promotion_writes_nothing(
        self, tmp_path, model, plans, baseline_rel_error, monkeypatch
    ):
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        bundles = tmp_path / "models" / "qpp"
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            stack.manager.poll()
            stack.manager.retrain()
            published = spy_manifests(monkeypatch)
            with pytest.raises(LifecycleError, match="only legal from 'shadow'"):
                stack.manager.promote()  # still retraining
            assert [p.name for p in bundles.iterdir()] == ["cycle-000"]
            stack.manager.deploy_shadow()
            with pytest.raises(PromotionError, match="outcome-joined"):
                stack.manager.promote()  # no shadow evidence yet
            assert [p.name for p in bundles.iterdir()] == ["cycle-000"]
            assert published == [(LifecycleState.SHADOW, "models/qpp/cycle-000", 0)]
            stack.manager.demote()
        assert [p.name for p in bundles.iterdir()] == ["cycle-000"]
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.manager.state == LifecycleState.LIVE
        recovered.journal.close()
        stack.journal.close()

    def test_promotion_and_rollback_each_publish_one_manifest(
        self, tmp_path, model, plans, baseline_rel_error, monkeypatch
    ):
        """State and pointer move in one write: no published manifest
        says ``demoted`` while naming the rolled-back candidate."""
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            stack.manager.poll()
            stack.manager.retrain()
            stack.manager.deploy_shadow()
            published = spy_manifests(monkeypatch)
            stack.manager.promote(force=True)
            assert published == [
                (LifecycleState.PROMOTED, "models/qpp/cycle-001", 0)
            ]
            stack.manager.demote()
        # The rollback's one manifest also counts the completed cycle.
        assert published == [
            (LifecycleState.PROMOTED, "models/qpp/cycle-001", 0),
            (LifecycleState.DEMOTED, "models/qpp/cycle-000", 1),
        ]
        assert load_verified_json(tmp_path / MANIFEST_NAME)["cycle"] == 1
        recovered = ServiceRecovery.recover(tmp_path)
        served = recovered.service.registry.model("qpp")
        for key, ref in sorted(model.state_dict().items()):
            assert np.array_equal(ref, served.state_dict()[key]), key
        recovered.journal.close()
        stack.journal.close()

    @pytest.mark.parametrize("ending", ["reject", "rollback", "promoted", "stabilized"])
    def test_next_cycle_after_restart_retrains_afresh(
        self, tmp_path, model, plans, baseline_rel_error, ending
    ):
        """However the first cycle ended (or was cut short after its
        promotion), a restart counts it as complete: the next retrain
        writes ``checkpoints/cycle-002`` instead of resuming the first
        candidate from ``cycle-001``."""
        stack = make_stack(
            tmp_path,
            model,
            plans,
            baseline_rel_error,
            fine_tune_epochs=1,
            stabilize_outcomes=8,
        )
        manager = stack.manager
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            manager.poll()
            manager.retrain()
            manager.deploy_shadow()
            if ending == "reject":
                manager.demote()
            else:
                manager.promote(force=True)
            if ending == "rollback":
                manager.demote()
            elif ending == "stabilized":
                # Fewer outcomes than the detectors' min_observations:
                # nothing can trigger, so the promotion settles.
                serve_and_observe(stack.service, drifted_samples(8, seed=13))
                manager.step()
                assert manager.state == LifecycleState.LIVE
        assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == [
            "cycle-001"
        ]
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.manager.state == LifecycleState.LIVE
        assert recovered.manager.cycle == 1
        recovered.manager.retrain()
        assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == [
            "cycle-001",
            "cycle-002",
        ]
        recovered.journal.close()
        stack.journal.close()

    @pytest.mark.parametrize("ending", ["reject", "promote", "rollback"])
    def test_restart_after_cycle_end_restores_the_rearmed_monitor(
        self, tmp_path, model, plans, baseline_rel_error, ending
    ):
        """``promote`` and ``demote`` re-arm the drift monitor.  A process
        that dies right after, with no further poll, must recover that
        re-armed monitor, not the pre-reset snapshot: otherwise the
        first step retrains on the very outcomes that ended the cycle."""
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        manager = stack.manager
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            manager.poll()
            manager.retrain()
            manager.deploy_shadow()
            if ending == "reject":
                manager.demote()
            else:
                manager.promote(force=True)
            if ending == "rollback":
                manager.demote()
        # kill -9 here: no further poll.
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.monitor.state_dict() == stack.monitor.state_dict()
        recovered.manager.step()
        assert recovered.manager.state == LifecycleState.LIVE
        recovered.journal.close()
        stack.journal.close()

    def test_snapshot_never_outruns_the_durable_journal(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """With the default batched fsync, a drift snapshot must not cover
        journal records a power loss can still take: the segment keeps
        only what its last fsync made durable, while the fsynced snapshot
        and manifest survive whole."""
        synced = []

        def fsync_fn(fd):
            os.fsync(fd)
            synced.append(os.fstat(fd).st_size)

        stack = ServiceRecovery.create(
            tmp_path,
            model,
            baseline_rel_error=baseline_rel_error,
            thresholds=thresholds(),
            known_signatures={p.structure_signature() for p in plans},
            fsync_fn=fsync_fn,
        )
        with stack.service:
            serve_and_observe(stack.service, corpus[:100])
            stack.manager.poll()  # 100 >= drift_snapshot_every (64)
        assert load_verified_json(tmp_path / DRIFT_SNAPSHOT_NAME)["cursor"] == 100
        [segment] = stack.journal.segments()
        os.truncate(segment, synced[-1])  # the power loss

        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.manager.cursor <= recovered.report.max_seq
        with recovered.service:
            handle = recovered.service.submit(plans[0])
            handle.result(timeout=30)
            rec = handle.observe(100.0)
        before = recovered.monitor.report().observations
        recovered.manager.poll()
        assert recovered.manager.cursor == rec.seq
        assert recovered.monitor.report().observations == before + 1
        recovered.journal.close()
        stack.journal.close()

    def test_next_cycle_after_lost_manifests_trains_afresh(
        self, tmp_path, model, corpus, plans, baseline_rel_error, monkeypatch
    ):
        """The manifests of a whole cycle fail to land, so
        ``checkpoints/cycle-001`` outlives a manifest still at cycle 0.
        After a restart the next cycle reuses that directory: it must
        train afresh on its own samples, not resume the first cycle's
        candidate."""
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        manager = stack.manager
        with stack.service:
            serve_and_observe(stack.service, corpus[:40])
            manager.poll()

            def sick_disk(path, payload):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(lifecycle, "atomic_write_json", sick_disk)
            serve_and_observe(stack.service, drifted_samples(40, seed=9))
            manager.poll()
            manager.retrain()
            first = {
                k: v.copy() for k, v in manager._candidate.model.state_dict().items()
            }
            manager.deploy_shadow()
            manager.demote()
        monkeypatch.undo()
        assert (tmp_path / "checkpoints" / "cycle-001").is_dir()

        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.manager.cycle == 0
        with recovered.service:
            serve_and_observe(recovered.service, drifted_samples(48, seed=13))
            recovered.manager.poll()
        samples = recovered.manager.training_samples()
        assert len(samples) == 128
        config = recovered.manager.config
        reference_model, reference_history = fine_tune(
            recovered.service.registry.model("qpp"),
            samples,
            epochs=config.fine_tune_epochs,
            lr=config.fine_tune_lr,
            batch_size=config.fine_tune_batch_size,
            checkpoint_dir=str(tmp_path / "reference"),
        )
        history = recovered.manager.retrain()
        candidate = recovered.manager._candidate.model.state_dict()
        for key, ref in sorted(reference_model.state_dict().items()):
            assert np.array_equal(ref, candidate[key]), key
        assert history.train_loss == reference_history.train_loss
        assert any(not np.array_equal(first[key], candidate[key]) for key in first)
        recovered.journal.close()
        stack.journal.close()


def test_state_dir_pins_the_checkpoint_dir(tmp_path, model):
    """A manager with a ``state_dir`` retrains where recovery looks."""
    registry = ModelRegistry()
    registry.register("qpp", model)
    service = PredictionService(registry, default_model="qpp")
    monitor = DriftMonitor(0.3)
    LifecycleManager(
        service,
        monitor,
        LifecycleConfig(checkpoint_dir=tmp_path / "checkpoints"),
        state_dir=tmp_path,
    )
    with pytest.raises(LifecycleError, match="checkpoint_dir must be"):
        LifecycleManager(
            service,
            monitor,
            LifecycleConfig(checkpoint_dir=tmp_path / "elsewhere"),
            state_dir=tmp_path,
        )
