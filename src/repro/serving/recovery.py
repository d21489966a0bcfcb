"""Cold-restart recovery: rebuild the serving stack from a state directory.

:mod:`repro.serving.journal` makes the outcome stream durable; a
:class:`~repro.serving.lifecycle.LifecycleManager` given a
``state_dir`` persists everything else it decides.  This module lays
those pieces out as one *state directory* with a single
atomically-replaced manifest, and provides the front door that turns a
directory back into a running stack::

    state/
      manifest.json        <- atomic JSON: state machine + model pointers
      journal/             <- OutcomeJournal segments (the outcome WAL)
      drift.json           <- periodic atomic DriftMonitor snapshot
      checkpoints/         <- fine-tune checkpoints, one dir per cycle
      models/<name>/...    <- versioned model bundles (pointer-swapped)

**First boot** (:meth:`ServiceRecovery.create`) saves the model bundle,
opens a fresh journal, publishes the manifest, and returns a
:class:`RecoveredStack` that keeps the directory current as a side
effect of normal operation (journal appends, drift snapshots, manifest
republication).

**After a crash** (:meth:`ServiceRecovery.recover`) the manifest names
the bundles to load, the journal replays (damage becomes counters,
never exceptions), the outcome log restores its window, the drift
snapshot restores the detectors, and one poll feeds the journal suffix
past the snapshot cursor, leaving the detectors *identical* to a
process that never died.  A crash mid-retrain recovers in
``retraining``, and the next ``retrain()`` resumes bitwise.

**Model durability** uses versioned bundle directories plus manifest
pointer swap: a promotion saves the candidate's bundle to a fresh
``models/<name>/cycle-NNN`` (through
:func:`repro.core.durable.publish_dir`, so it is whole and durable
first), swaps the live session, and then publishes the ``promoted``
manifest naming it; a rollback's ``demoted`` manifest restores the
previous pointer.  Each transition is one manifest write carrying state
and pointer together, so after a process death or a power loss at any
instant the manifest names a complete bundle that matches its state
(last-manifest-wins by design).  ``tests/serving/test_crash_points.py``
checks this at every crash point of four whole cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.core import durable
from repro.core.bundle import save_bundle
from repro.core.checkpoint import CheckpointError, load_verified_json
from repro.core.model import QPPNet
from repro.evaluation.drift import DriftMonitor, DriftThresholds

from .journal import OutcomeJournal, ReplayResult
from .lifecycle import (
    CHECKPOINTS_DIRNAME,
    DRIFT_SNAPSHOT_NAME,
    JOURNAL_DIRNAME,
    MANIFEST_FORMAT_VERSION,
    MANIFEST_NAME,
    LifecycleConfig,
    LifecycleManager,
    _bundle_path,
)
from .registry import ModelRegistry
from .resilience import LifecycleState, RecoveryError
from .service import OUTCOME_LOG_SIZE, OutcomeLog, PredictionService

__all__ = [
    "RecoveredStack",
    "RecoveryReport",
    "ServiceRecovery",
]

PathLike = Union[str, "os.PathLike[str]"]

#: How a persisted lifecycle state maps onto the state a *restarted*
#: process can actually be in.  ``shadow`` falls back to ``retraining``
#: (the candidate and its shadow evidence were in memory; the candidate
#: is re-derivable bitwise from the cycle's checkpoints, the evidence is
#: lost by design), ``promoted``/``demoted`` settle to ``live`` (the
#: manifest pointer already names the surviving model; in-memory
#: rollback state is gone).  A ``demoted`` manifest already counts its
#: cycle as complete; a ``promoted`` one is written mid-cycle, so
#: settling it completes the cycle (the next retrain must not resume
#: the promoted candidate's checkpoints).
_RESTART_STATE_MAP = {
    LifecycleState.LIVE: LifecycleState.LIVE,
    LifecycleState.RETRAINING: LifecycleState.RETRAINING,
    LifecycleState.SHADOW: LifecycleState.RETRAINING,
    LifecycleState.PROMOTED: LifecycleState.LIVE,
    LifecycleState.DEMOTED: LifecycleState.LIVE,
}


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`ServiceRecovery.recover` found and rebuilt.

    The damage counters mirror :class:`~repro.serving.journal
    .ReplayResult`; ``snapshot_used`` is ``False`` when the drift
    snapshot was missing or failed verification (the monitor was then
    rebuilt cold from the manifest baseline and the *whole* journal
    replayed through it).
    """

    #: Records decoded from the on-disk journal.
    replayed_records: int
    #: Highest replayed sequence number.
    max_seq: int
    corrupt_records: int
    corrupt_segments: int
    torn_tail_bytes: int
    #: Whether a verified drift snapshot seeded the monitor.
    snapshot_used: bool
    #: The snapshot's cursor (0 without a snapshot): replay through the
    #: monitor covered only sequence numbers beyond this.
    snapshot_cursor: int
    #: Journal-suffix records fed to the monitor by the recovery poll.
    suffix_observed: int
    #: Lifecycle state the manifest recorded at death, and the state
    #: the recovered manager resumed in (see the restart state map).
    manifest_state: str
    restored_state: str


@dataclass
class RecoveredStack:
    """A rebuilt (or freshly created) durable serving stack."""

    service: PredictionService
    monitor: DriftMonitor
    manager: LifecycleManager
    journal: OutcomeJournal
    state_dir: Path
    #: ``None`` on first boot; the replay/restore evidence on recovery.
    report: Optional[RecoveryReport] = None

    def close(self) -> None:
        """Stop the manager/service (drained) and sync the journal."""
        self.manager.stop()
        try:
            self.service.stop(drain=True)
        finally:
            self.journal.close()


class ServiceRecovery:
    """Front door for durable serving state (create once, recover forever).

    Static namespace — both entry points return a
    :class:`RecoveredStack` wired so that normal operation keeps the
    state directory current (journal appends, drift snapshots, manifest
    republication) without any further caller involvement.
    """

    @staticmethod
    def create(
        state_dir: PathLike,
        model: QPPNet,
        *,
        model_name: str = "qpp",
        baseline_rel_error: float,
        thresholds: Optional[DriftThresholds] = None,
        known_signatures: Iterable[str] = (),
        outcome_log_size: int = OUTCOME_LOG_SIZE,
        segment_max_bytes: int = 1 << 20,
        fsync_every: int = 64,
        fsync_fn=None,
        **lifecycle_kwargs,
    ) -> RecoveredStack:
        """First boot: persist the model, arm the journal, publish the
        manifest, and return the running-state-free stack (the caller
        starts the service/manager)."""
        state_dir = durable.make_dirs(state_dir)
        bundle = _bundle_path(model_name, 0)
        save_bundle(model, state_dir / bundle)
        registry = ModelRegistry()
        registry.register(model_name, model)
        monitor = DriftMonitor(
            baseline_rel_error,
            thresholds=thresholds,
            known_signatures=known_signatures,
        )
        stack, _ = _open_stack(
            state_dir,
            registry,
            monitor,
            model_name,
            {model_name: bundle},
            lifecycle_kwargs,
            outcome_log_size=outcome_log_size,
            segment_max_bytes=segment_max_bytes,
            fsync_every=fsync_every,
            fsync_fn=fsync_fn,
        )
        if not stack.manager.persist_manifest():
            raise RecoveryError(
                f"could not publish the initial manifest under {state_dir}"
            )
        return stack

    @staticmethod
    def recover(
        state_dir: PathLike,
        *,
        outcome_log_size: int = OUTCOME_LOG_SIZE,
        segment_max_bytes: int = 1 << 20,
        fsync_every: int = 64,
        fsync_fn=None,
        **lifecycle_overrides,
    ) -> RecoveredStack:
        """Rebuild the stack from a state directory after a crash.

        Raises :class:`~repro.serving.resilience.RecoveryError` only for
        unrecoverable damage (missing/corrupt manifest, unloadable model
        bundle).  Journal and snapshot damage degrade to the typed
        counters on the attached :class:`RecoveryReport`.

        ``lifecycle_overrides`` overlay the persisted lifecycle config
        (use them for non-JSON seams like ``epoch_hook``); leave the
        training-shape fields alone for a bitwise retrain resume.
        """
        state_dir = Path(state_dir)
        manifest_path = state_dir / MANIFEST_NAME
        try:
            manifest = load_verified_json(manifest_path)
        except FileNotFoundError as error:
            raise RecoveryError(
                f"no manifest at {manifest_path}: not a serving state directory"
            ) from error
        except CheckpointError as error:
            raise RecoveryError(
                f"manifest at {manifest_path} failed verification: {error}"
            ) from error
        if manifest.get("format") != MANIFEST_FORMAT_VERSION:
            raise RecoveryError(
                f"unsupported manifest format {manifest.get('format')!r}"
            )
        model_name = manifest["model_name"]
        manifest_state = manifest["state"]
        restored_state = _RESTART_STATE_MAP.get(manifest_state)
        if restored_state is None:
            raise RecoveryError(f"manifest names unknown state {manifest_state!r}")

        registry = ModelRegistry()
        for name, rel in manifest["models"].items():
            bundle_dir = state_dir / rel
            try:
                registry.load(name, bundle_dir)
            except Exception as error:
                raise RecoveryError(
                    f"could not load model bundle for {name!r} from "
                    f"{bundle_dir}: {error}"
                ) from error

        snapshot_used = False
        cursor = 0
        lost = 0
        try:
            snapshot = load_verified_json(state_dir / DRIFT_SNAPSHOT_NAME)
            monitor = DriftMonitor.from_state_dict(snapshot["monitor"])
            cursor = int(snapshot["cursor"])
            lost = int(snapshot.get("outcomes_lost", 0))
            snapshot_used = True
        except (FileNotFoundError, CheckpointError, KeyError, ValueError, TypeError):
            # Missing or damaged snapshot: rebuild the monitor cold from
            # the manifest's frozen baseline and replay the whole
            # journal through it (cursor 0).  Slower, never wrong.
            drift = manifest["drift"]
            monitor = DriftMonitor(
                float(drift["baseline_rel_error"]),
                thresholds=DriftThresholds(**drift["thresholds"]),
                known_signatures=drift.get("known_signatures", ()),
            )

        stack, replay = _open_stack(
            state_dir,
            registry,
            monitor,
            model_name,
            dict(manifest["models"]),
            {**manifest.get("lifecycle", {}), **lifecycle_overrides},
            outcome_log_size=outcome_log_size,
            segment_max_bytes=segment_max_bytes,
            fsync_every=fsync_every,
            fsync_fn=fsync_fn,
        )
        cycle = int(manifest["cycle"])
        if manifest_state == LifecycleState.PROMOTED:
            cycle += 1  # settling a promotion completes its cycle
        manager = stack.manager
        manager.restore_progress(
            state=restored_state,
            cycle=cycle,
            cursor=cursor,
            outcomes_lost=lost,
        )
        # Feed the journal suffix past the snapshot cursor through the
        # restored detectors: after this poll the drift state is
        # identical to a process that never died.
        before = manager.cursor
        manager.poll()
        stack.report = RecoveryReport(
            replayed_records=len(replay.records),
            max_seq=replay.max_seq,
            corrupt_records=replay.corrupt_records,
            corrupt_segments=replay.corrupt_segments,
            torn_tail_bytes=replay.torn_tail_bytes,
            snapshot_used=snapshot_used,
            snapshot_cursor=cursor,
            suffix_observed=sum(1 for rec in replay.records if rec.seq > before),
            manifest_state=manifest_state,
            restored_state=restored_state,
        )
        return stack


def _open_stack(
    state_dir: Path,
    registry: ModelRegistry,
    monitor: DriftMonitor,
    model_name: str,
    bundles: dict[str, str],
    lifecycle_fields: dict,
    *,
    outcome_log_size: int,
    **journal_kwargs,
) -> tuple[RecoveredStack, ReplayResult]:
    """Journal -> outcome log -> service -> config -> manager over one
    state directory, plus what the journal replayed (nothing on a
    fresh directory)."""
    journal = OutcomeJournal(state_dir / JOURNAL_DIRNAME, **journal_kwargs)
    replay = journal.recover()
    log = OutcomeLog(outcome_log_size, journal=journal)
    log.restore(replay.records)
    service = PredictionService(registry, default_model=model_name, outcomes=log)
    config = LifecycleConfig(
        checkpoint_dir=state_dir / CHECKPOINTS_DIRNAME, **lifecycle_fields
    )
    manager = LifecycleManager(
        service,
        monitor,
        config,
        model=model_name,
        state_dir=state_dir,
        bundles=bundles,
    )
    stack = RecoveredStack(
        service=service,
        monitor=monitor,
        manager=manager,
        journal=journal,
        state_dir=state_dir,
    )
    return stack, replay
