"""Live model lifecycle: observe → detect → retrain → shadow → promote.

Drift and staleness are the operational problems of learned QPP (the
LinkedIn evaluation, PAPERS.md).  This module closes the loop:

* the **outcome journal** (``PredictionService.record_outcome`` /
  ``Prediction.observe``) supplies the observed stream;
* a :class:`~repro.evaluation.drift.DriftMonitor` decides when the live
  model no longer resembles its offline baseline;
* :func:`~repro.core.trainer.fine_tune` refreshes a *copy* of the live
  model on the observed stream through the durable
  ``Trainer.fit(checkpoint_dir=...)`` path — a crash mid-retrain
  resumes bitwise from the last checkpoint;
* the candidate then **shadow-serves**: a :class:`ShadowSession`
  replaces the live session (atomically, via
  ``ModelRegistry.replace_session``), the old model keeps answering,
  and the candidate rides every batch with its disagreement journaled;
* **promotion** is one more atomic ``replace_session`` — zero dropped
  or misrouted requests, because routing resolves per executed batch —
  with the retired session retained so a post-promotion regression can
  **roll back**.

:class:`LifecycleManager` orchestrates the state machine
(:class:`~repro.serving.resilience.LifecycleState`; drawn in the
``repro.serving`` package docstring) either autonomously (``start()``
spawns a polling thread that drives :meth:`LifecycleManager.step`) or
under explicit control — every stage (:meth:`poll`, :meth:`retrain`,
:meth:`deploy_shadow`, :meth:`promote`, :meth:`demote`) is a public
synchronous method, which is how the chaos drills squeeze faults into
exact points of the cycle.

Given a ``state_dir``, the same manager owns every durable write of the
cycle: the manifest, the drift snapshot and promoted model bundles
(layout in :mod:`repro.serving.recovery`).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core import durable
from repro.core.bundle import save_bundle
from repro.core.checkpoint import atomic_write_json
from repro.core.trainer import TrainingHistory, fine_tune
from repro.evaluation.drift import DriftMonitor, DriftReport
from repro.plans.node import PlanNode
from repro.workload.generator import PlanSample

from .registry import ModelRegistry
from .resilience import (
    LifecycleError,
    LifecycleState,
    PromotionError,
)
from .service import PredictionService
from .session import InferenceSession

__all__ = [
    "LifecycleConfig",
    "LifecycleManager",
    "ShadowLog",
    "ShadowReport",
    "ShadowSession",
]

#: Registry-name suffix the shadow candidate is published under while it
#: shadow-serves (explicitly routable for operator smoke traffic).
CANDIDATE_SUFFIX = "-candidate"

#: State-directory layout: the manager writes the manifest, the drift
#: snapshot and promoted bundles; :mod:`repro.serving.recovery` creates
#: the journal and checkpoint directories and reads everything back.
MANIFEST_NAME = "manifest.json"
DRIFT_SNAPSHOT_NAME = "drift.json"
JOURNAL_DIRNAME = "journal"
CHECKPOINTS_DIRNAME = "checkpoints"
MODELS_DIRNAME = "models"

#: Bump when the manifest payload changes incompatibly.
MANIFEST_FORMAT_VERSION = 1

#: LifecycleConfig fields persisted in (and restored from) the manifest
#: — the ones that shape retraining, so a recovered manager resumes an
#: interrupted fine-tune with identical hyperparameters.
_PERSISTED_CONFIG_FIELDS = (
    "fine_tune_epochs",
    "fine_tune_lr",
    "fine_tune_batch_size",
    "checkpoint_every",
    "min_retrain_outcomes",
    "max_retrain_outcomes",
    "shadow_min_outcomes",
    "promote_margin",
    "stabilize_outcomes",
    "poll_interval_s",
    "cooldown_s",
    "shadow_log_size",
    "drift_snapshot_every",
)


def _bundle_path(model_name: str, cycle: int) -> str:
    """A model's versioned bundle directory, relative to the state dir."""
    return str(Path(MODELS_DIRNAME) / model_name / f"cycle-{cycle:03d}")


# ----------------------------------------------------------------------
# Shadow serving
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShadowSample:
    """One request's primary-vs-candidate disagreement."""

    primary_ms: float
    candidate_ms: float

    @property
    def abs_delta_ms(self) -> float:
        return abs(self.candidate_ms - self.primary_ms)

    @property
    def rel_delta(self) -> float:
        """Disagreement relative to the answer actually served."""
        return self.abs_delta_ms / max(abs(self.primary_ms), 1e-12)


@dataclass(frozen=True)
class ShadowReport:
    """What shadow serving learned about the candidate.

    Disagreement percentiles come from every shadowed request; the
    outcome-joined error columns only from requests whose measured
    latency was later reported via ``Prediction.observe`` (NaN when no
    outcome landed yet).
    """

    #: Requests routed through the shadow wrapper.
    requests: int
    #: Requests where the candidate's forward raised (primary still
    #: answered; candidate failures never touch live traffic).
    candidate_errors: int
    #: Disagreement samples currently retained (bounded window).
    samples: int
    p50_abs_delta_ms: float
    p99_abs_delta_ms: float
    p50_rel_delta: float
    p99_rel_delta: float
    #: Shadowed requests with an observed outcome joined in.
    observed_outcomes: int
    #: Mean relative error of each model against those observed outcomes.
    primary_rel_error: float
    candidate_rel_error: float


class ShadowLog:
    """Bounded journal of primary-vs-candidate predictions.

    Also keeps a bounded identity-keyed index (plan object → prediction
    pair) so outcome records — which retain the served plan object —
    can be joined back to "what would the candidate have said".
    """

    def __init__(self, maxlen: int = 4096) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = maxlen
        self._lock = threading.Lock()
        self._samples: deque[ShadowSample] = deque(maxlen=maxlen)
        # id(plan) -> (plan, primary_ms, candidate_ms); the plan object
        # is stored so the id can never be recycled while indexed.
        self._by_plan: "OrderedDict[int, tuple[PlanNode, float, float]]" = OrderedDict()
        self._requests = 0
        self._candidate_errors = 0

    def record_batch(
        self,
        plans: Sequence[PlanNode],
        primary: Sequence[float],
        candidate: Sequence[float],
    ) -> None:
        with self._lock:
            self._requests += len(plans)
            for plan, p, c in zip(plans, primary, candidate):
                self._samples.append(ShadowSample(float(p), float(c)))
                self._by_plan[id(plan)] = (plan, float(p), float(c))
                while len(self._by_plan) > self.maxlen:
                    self._by_plan.popitem(last=False)

    def record_error(self, n_requests: int) -> None:
        with self._lock:
            self._requests += n_requests
            self._candidate_errors += n_requests

    def lookup(self, plan: PlanNode) -> Optional[tuple[float, float]]:
        """(primary_ms, candidate_ms) for a shadowed plan, by identity."""
        with self._lock:
            entry = self._by_plan.get(id(plan))
        if entry is None or entry[0] is not plan:
            return None
        return entry[1], entry[2]

    @property
    def requests(self) -> int:
        with self._lock:
            return self._requests

    @property
    def candidate_errors(self) -> int:
        with self._lock:
            return self._candidate_errors

    def delta_stats(self) -> tuple[int, float, float, float, float]:
        """(samples, p50_abs, p99_abs, p50_rel, p99_rel); NaNs when empty."""
        with self._lock:
            samples = list(self._samples)
        if not samples:
            nan = float("nan")
            return 0, nan, nan, nan, nan
        abs_d = np.array([s.abs_delta_ms for s in samples])
        rel_d = np.array([s.rel_delta for s in samples])
        p50a, p99a = np.percentile(abs_d, [50, 99])
        p50r, p99r = np.percentile(rel_d, [50, 99])
        return len(samples), float(p50a), float(p99a), float(p50r), float(p99r)


class ShadowSession:
    """Serve the primary; mirror every batch to the candidate.

    Drop-in for an :class:`InferenceSession` in the registry: callers
    always get the primary's values, so shadowing changes *nothing*
    observable about live traffic except added compute.  The candidate
    runs inside its own try/except — a crashing candidate is journaled
    (``candidate_errors``) and the batch still completes.  Attribute
    access (``model``, ``feature_cache``, ``stats`` ...) delegates to
    the primary, so registry bookkeeping and service stats keep
    describing the model that is actually answering.
    """

    def __init__(self, primary, candidate, log: ShadowLog) -> None:
        self.primary = primary
        self.candidate = candidate
        self.log = log

    @property
    def model(self):
        return self.primary.model

    def predict_batch(self, plans: Sequence[PlanNode]):
        values = self.primary.predict_batch(plans)
        try:
            shadow = self.candidate.predict_batch(plans)
        except Exception:
            # Candidate-only failure: journal it, keep serving.  A
            # BaseException (SimulatedCrash, KeyboardInterrupt) still
            # propagates — a simulated process death must not be
            # absorbed by shadow bookkeeping.
            self.log.record_error(len(plans))
            return values
        self.log.record_batch(plans, list(values), list(shadow))
        return values

    def predict(self, plan: PlanNode) -> float:
        return float(self.predict_batch([plan])[0])

    def __getattr__(self, name: str):
        return getattr(self.primary, name)

    def __repr__(self) -> str:
        return (
            f"ShadowSession(primary={self.primary!r}, "
            f"candidate={self.candidate!r}, requests={self.log.requests})"
        )


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
@dataclass
class LifecycleConfig:
    """Knobs for :class:`LifecycleManager` (validated on construction)."""

    #: Root directory for retrain checkpoints; each retrain cycle writes
    #: under ``<checkpoint_dir>/cycle-NNN`` so a crash mid-cycle resumes
    #: from exactly its own checkpoints.
    checkpoint_dir: Union[str, os.PathLike]
    #: Fine-tune length and (optional) overrides; ``None`` inherits the
    #: live model's training config.
    fine_tune_epochs: int = 4
    fine_tune_lr: Optional[float] = None
    fine_tune_batch_size: Optional[int] = None
    checkpoint_every: int = 1
    #: Analyzed outcomes required before a retrain may start, and the
    #: cap on how many recent ones the fine-tune consumes.
    min_retrain_outcomes: int = 64
    max_retrain_outcomes: int = 2048
    #: Outcome-joined shadow evidence required before promote/demote.
    shadow_min_outcomes: int = 32
    #: Promotion gate: candidate observed error must be <= primary
    #: observed error × this margin (1.0 = "no worse").
    promote_margin: float = 1.0
    #: After promotion: clean outcomes before the cycle settles back to
    #: ``live``; a drift trigger before that rolls the promotion back.
    stabilize_outcomes: int = 64
    #: Background loop tick, and the post-demotion quiet period before
    #: another retrain may trigger.
    poll_interval_s: float = 0.05
    cooldown_s: float = 0.0
    #: Fault-injection seam, forwarded to ``Trainer.fit`` (the chaos
    #: drills pass :func:`repro.testing.faults.kill_at_epoch`).
    epoch_hook: Optional[Callable[[int], None]] = None
    #: Bound on the shadow disagreement journal.
    shadow_log_size: int = 4096
    #: Drift-snapshot cadence for a manager with a ``state_dir``: one
    #: atomic write of ``<state_dir>/drift.json`` per this many consumed
    #: outcomes.  With a snapshot on disk, crash recovery replays only
    #: the outcome-journal suffix past the snapshot's cursor.
    drift_snapshot_every: int = 64

    def __post_init__(self) -> None:
        if self.fine_tune_epochs < 1:
            raise ValueError("fine_tune_epochs must be >= 1")
        if self.min_retrain_outcomes < 1 or self.max_retrain_outcomes < 1:
            raise ValueError("retrain outcome bounds must be >= 1")
        if self.shadow_min_outcomes < 1:
            raise ValueError("shadow_min_outcomes must be >= 1")
        if self.promote_margin <= 0:
            raise ValueError("promote_margin must be positive")
        if self.stabilize_outcomes < 1:
            raise ValueError("stabilize_outcomes must be >= 1")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.drift_snapshot_every < 1:
            raise ValueError("drift_snapshot_every must be >= 1")


class LifecycleManager:
    """Drives one model's serve→observe→retrain→promote state machine.

    Wraps a running :class:`PredictionService`, the
    :class:`DriftMonitor` armed with the model's offline baseline, and
    a :class:`LifecycleConfig`.  Use it autonomously::

        manager = LifecycleManager(service, monitor, config).start()
        ...
        manager.stop()

    or drive each stage by hand (what the drills do): :meth:`poll` feeds
    new outcomes to the monitor, :meth:`retrain` fine-tunes a candidate
    durably, :meth:`deploy_shadow` swaps in the shadow wrapper,
    :meth:`promote` / :meth:`demote` end the cycle.  All public methods
    are serialized on one reentrant lock; the service keeps serving
    concurrently throughout (its locks are never held here).

    **Crash semantics.** :meth:`retrain` is legal from ``live`` *and*
    from ``retraining``: a :class:`~repro.testing.faults.SimulatedCrash`
    (or real death) mid-fine-tune leaves the state machine in
    ``retraining`` with durable checkpoints on disk, and the next
    :meth:`retrain` — same manager or a fresh one over the same
    ``checkpoint_dir`` and outcome journal — resumes from the last
    checkpoint, reproducing the uninterrupted fit bitwise.

    **Durable state.** With a ``state_dir`` (what
    :class:`~repro.serving.recovery.ServiceRecovery` wires), every
    transition atomically republishes ``<state_dir>/manifest.json``
    (state, cycle and model pointers in one write) and :meth:`poll`
    snapshots the drift monitor; ``checkpoint_dir`` must be
    ``<state_dir>/checkpoints``, where recovery resumes a retrain.
    ``bundles`` maps model names to bundle directories relative to
    ``state_dir``; a refused promotion writes nothing.  Write failures
    are swallowed into :attr:`manifest_errors` / :attr:`snapshot_errors`:
    a sick disk degrades durability, never the state machine.
    """

    def __init__(
        self,
        service: PredictionService,
        monitor: DriftMonitor,
        config: LifecycleConfig,
        *,
        model: Optional[str] = None,
        state_dir: Optional[Union[str, os.PathLike]] = None,
        bundles: Optional[dict[str, str]] = None,
    ) -> None:
        name = model if model is not None else service.default_model
        if name is None:
            raise LifecycleError(
                "no model name: pass model=... or give the service a default_model"
            )
        if name not in service.registry:
            raise LifecycleError(f"model {name!r} is not registered with the service")
        self.service = service
        self.monitor = monitor
        self.config = config
        self.model_name = name
        #: (state, detail) transition journal, for observability/tests.
        self.events: list[tuple[str, str]] = []
        #: Exceptions swallowed by the background loop (it must survive
        #: transient failures; SimulatedCrash still kills it).
        self.errors: list[BaseException] = []
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None and os.path.abspath(
            config.checkpoint_dir
        ) != os.path.abspath(self.state_dir / CHECKPOINTS_DIRNAME):
            raise LifecycleError(
                f"with state_dir={str(self.state_dir)!r}, checkpoint_dir must be "
                f"its {CHECKPOINTS_DIRNAME!r} subdirectory (recovery resumes "
                f"retrains from there), not {str(config.checkpoint_dir)!r}"
            )
        self._bundles: dict[str, str] = dict(bundles or {})
        #: Swallowed manifest-write failures.
        self.manifest_errors = 0

        self._lock = threading.RLock()
        self._state = LifecycleState.LIVE
        self._cycle = 0
        self._cursor = 0  # last outcome seq fed to (or skipped past) the monitor
        self._outcomes_lost = 0  # journal records evicted before we polled them
        self._since_snapshot = 0  # outcomes consumed since the last drift snapshot
        self._snapshot_errors = 0  # swallowed snapshot-write failures
        self._cooldown_until = 0.0
        self._candidate: Optional[InferenceSession] = None
        self._trained_signatures: frozenset = frozenset()
        self._shadow_primary = None
        self._shadow_log: Optional[ShadowLog] = None
        self._rollback_to = None
        self._rollback_bundle: Optional[str] = None
        # Outcome-joined shadow evaluation accumulators.
        self._eval_n = 0
        self._eval_primary_err = 0.0
        self._eval_candidate_err = 0.0
        self.last_history: Optional[TrainingHistory] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def cycle(self) -> int:
        """Completed retrain cycles (promoted or demoted)."""
        with self._lock:
            return self._cycle

    @property
    def cursor(self) -> int:
        """Last outcome sequence number consumed (or skipped) by poll."""
        with self._lock:
            return self._cursor

    @property
    def outcomes_lost(self) -> int:
        """Outcomes evicted from the in-memory log before being polled
        (the poller fell more than the log's ``maxlen`` behind)."""
        with self._lock:
            return self._outcomes_lost

    @property
    def snapshot_errors(self) -> int:
        """Drift-snapshot write failures swallowed by :meth:`poll`."""
        with self._lock:
            return self._snapshot_errors

    def _transition(self, new: str, detail: str = "", *, reset_drift: bool = False) -> None:
        # Caller holds self._lock.  A reset monitor's snapshot lands first, or neither.
        self._state = LifecycleState.check(self._state, new)
        self.events.append((new, detail))
        if reset_drift and self.state_dir is not None and not self._publish_drift():
            self.manifest_errors += 1
            return
        self.persist_manifest()

    def persist_manifest(self) -> bool:
        """Atomically republish the manifest now; ``True`` on success.

        ``False`` without a ``state_dir``, or when the write failed
        (counted in ``manifest_errors``; the previous manifest stays).
        """
        if self.state_dir is None:
            return False
        with self._lock:
            monitor = self.monitor
            payload = {
                "format": MANIFEST_FORMAT_VERSION,
                "model_name": self.model_name,
                "state": self._state,
                "cycle": self._cycle,
                "models": dict(self._bundles),
                "checkpoint_dir": CHECKPOINTS_DIRNAME,
                "journal_dir": JOURNAL_DIRNAME,
                "drift_snapshot": DRIFT_SNAPSHOT_NAME,
                "drift": {
                    "baseline_rel_error": monitor.baseline_rel_error,
                    "thresholds": dataclasses.asdict(monitor.thresholds),
                    "known_signatures": sorted(monitor.known_signatures),
                },
                "lifecycle": {
                    name: getattr(self.config, name)
                    for name in _PERSISTED_CONFIG_FIELDS
                },
            }
            try:
                atomic_write_json(self.state_dir / MANIFEST_NAME, payload)
            except Exception:
                self.manifest_errors += 1
                return False
            return True

    def _cycle_dir(self) -> Path:
        return Path(self.config.checkpoint_dir) / f"cycle-{self._cycle + 1:03d}"

    # ------------------------------------------------------------------
    # Stage 1: observe
    # ------------------------------------------------------------------
    def poll(self) -> DriftReport:
        """Feed outcomes journaled since the last poll to the monitor.

        Also joins each outcome against the shadow log while a candidate
        is shadow-serving (accumulating both models' observed error),
        accounts any evicted gap in ``outcomes_lost`` (a poller that
        fell behind must not mistake missed news for no news), and —
        with a ``state_dir`` — calls :meth:`snapshot_drift` every
        ``drift_snapshot_every`` consumed outcomes so crash recovery
        only replays the journal suffix past the snapshot.  Returns the
        monitor's fresh report.
        """
        with self._lock:
            records, dropped = self.service.outcomes.since(self._cursor)
            if dropped:
                # The gap is permanent: advance past it exactly once so
                # it is never re-counted on the next poll.
                self._outcomes_lost += dropped
                self._cursor += dropped
            for rec in records:
                self._cursor = rec.seq
                self.monitor.observe(rec.predicted_ms, rec.observed_ms, rec.signature)
                if self._shadow_log is not None:
                    pair = self._shadow_log.lookup(rec.plan)
                    if pair is not None:
                        primary_ms, candidate_ms = pair
                        self._eval_n += 1
                        self._eval_primary_err += (
                            abs(rec.observed_ms - primary_ms) / rec.observed_ms
                        )
                        self._eval_candidate_err += (
                            abs(rec.observed_ms - candidate_ms) / rec.observed_ms
                        )
            self._since_snapshot += len(records)
            if (
                self.state_dir is not None
                and self._since_snapshot >= self.config.drift_snapshot_every
            ):
                self.snapshot_drift()
            return self.monitor.report()

    def snapshot_drift(self) -> bool:
        """Atomically persist the drift state now; ``True`` on success.

        Syncs the outcome journal, so the snapshot never covers a record
        a power loss could still take, then writes
        ``<state_dir>/drift.json`` (``False`` without a ``state_dir``)
        via :func:`repro.core.checkpoint.atomic_write_json`.  A failed
        sync or write publishes nothing and counts in ``snapshot_errors``
        (the previous snapshot stays valid, replay covers more journal).
        On success, journal segments wholly behind both the snapshot
        cursor and the in-memory retention window are pruned.
        """
        if self.state_dir is None:
            return False
        with self._lock:
            if not self._publish_drift():
                self._snapshot_errors += 1
                return False
            return True

    def _publish_drift(self) -> bool:
        # Caller holds self._lock and has a state_dir.
        log = self.service.outcomes
        journal = getattr(log, "journal", None)
        if journal is not None and not journal.sync():
            return False
        payload = {
            "format": 1,
            "cursor": self._cursor,
            "outcomes_lost": self._outcomes_lost,
            "monitor": self.monitor.state_dict(),
        }
        try:
            atomic_write_json(self.state_dir / DRIFT_SNAPSHOT_NAME, payload)
        except Exception:
            return False
        self._since_snapshot = 0
        if journal is not None:
            # Replay needs the suffix past the cursor (drift) and the
            # newest maxlen records (log restore / retraining).
            keep_from = min(self._cursor, max(0, log.total - log.maxlen))
            try:
                journal.prune(keep_from)
            except Exception:
                pass  # retention is best-effort; replay stays correct
        return True

    # ------------------------------------------------------------------
    # Stage 2: retrain (durable)
    # ------------------------------------------------------------------
    def training_samples(self) -> list[PlanSample]:
        """The observed stream as training samples (deterministic).

        The newest ``max_retrain_outcomes`` retained outcomes whose plan
        carries execution actuals (the labels ``vectorize_plan`` reads),
        oldest first, one sample per outcome: a plan observed twice
        trains twice.  Derived from the records alone, never from plan
        object identity (journal replay decodes every record into a
        fresh plan), so re-deriving after a crash — from the live log
        or the replayed journal, with no new outcomes in between —
        yields the identical sequence, which is what makes checkpoint
        resume bitwise.
        """
        analyzed = [
            rec
            for rec in self.service.outcomes.snapshot()
            if rec.plan.actual_total_ms is not None
        ]
        return [
            PlanSample(
                plan=rec.plan,
                latency_ms=rec.observed_ms,
                template_id="observed",
                workload="live",
            )
            for rec in analyzed[-self.config.max_retrain_outcomes :]
        ]

    def retrain(self) -> TrainingHistory:
        """Fine-tune a candidate on the observed stream; durable.

        Legal from ``live`` (starts a cycle, in an emptied checkpoint
        directory) and from ``retraining`` (resumes a crashed one from
        its checkpoints).  On success the warmed candidate is held for
        :meth:`deploy_shadow`.
        """
        cfg = self.config
        with self._lock:
            if self._state == LifecycleState.LIVE:
                samples = self.training_samples()
                if len(samples) < cfg.min_retrain_outcomes:
                    raise LifecycleError(
                        f"only {len(samples)} analyzed outcomes journaled; "
                        f"retrain needs >= {cfg.min_retrain_outcomes}"
                    )
                # Whatever the new cycle's directory already holds is an
                # earlier cycle's work whose closing manifest never
                # landed.  Empty it before the ``retraining`` manifest
                # names the cycle, so no crash can resume those files.
                if self._cycle_dir().exists():
                    durable.remove(self._cycle_dir())
                self._transition(
                    LifecycleState.RETRAINING, f"{len(samples)} observed samples"
                )
            elif self._state == LifecycleState.RETRAINING:
                samples = self.training_samples()  # crash-resume re-derivation
            else:
                raise LifecycleError(
                    f"retrain is only legal from 'live' or 'retraining' "
                    f"(state is {self._state!r})"
                )
            live_model = self.service.registry.model(self.model_name)
            candidate, history = fine_tune(
                live_model,
                samples,
                epochs=cfg.fine_tune_epochs,
                lr=cfg.fine_tune_lr,
                batch_size=cfg.fine_tune_batch_size,
                checkpoint_dir=str(self._cycle_dir()),
                checkpoint_every=cfg.checkpoint_every,
                epoch_hook=cfg.epoch_hook,
            )
            session = InferenceSession(candidate)
            # Pre-warm: compile schedules / level plans and fill the
            # feature cache on recent observed plans, so the first
            # shadowed (and first post-promotion) batch pays nothing.
            warm = [s.plan for s in samples[-64:]]
            if warm:
                session.predict_batch(warm)
            self._candidate = session
            self._trained_signatures = frozenset(
                s.plan.structure_signature() for s in samples
            )
            self.last_history = history
            return history

    # ------------------------------------------------------------------
    # Stage 3: shadow
    # ------------------------------------------------------------------
    def deploy_shadow(self) -> ShadowSession:
        """Put the candidate on live traffic without letting it answer.

        Atomically replaces the live session with a
        :class:`ShadowSession` (primary keeps answering) and publishes
        the raw candidate under ``<model>-candidate`` for explicit
        routing.  Zero-downtime both ways: routing resolves per batch.
        """
        with self._lock:
            if self._state != LifecycleState.RETRAINING or self._candidate is None:
                raise LifecycleError(
                    "deploy_shadow needs a retrained candidate "
                    f"(state is {self._state!r})"
                )
            registry = self.service.registry
            self._shadow_log = ShadowLog(self.config.shadow_log_size)
            self._eval_n = 0
            self._eval_primary_err = 0.0
            self._eval_candidate_err = 0.0
            primary = registry.session(self.model_name)
            wrapper = ShadowSession(primary, self._candidate, self._shadow_log)
            registry.register_session(
                self.model_name + CANDIDATE_SUFFIX, self._candidate
            )
            registry.replace_session(self.model_name, wrapper)
            self._shadow_primary = primary
            self._transition(LifecycleState.SHADOW)
            return wrapper

    def shadow_report(self) -> ShadowReport:
        """Disagreement + outcome-joined error evidence so far."""
        with self._lock:
            log = self._shadow_log
            if log is None:
                raise LifecycleError("no shadow deployment is (or was) active")
            n, p50a, p99a, p50r, p99r = log.delta_stats()
            eval_n = self._eval_n
            primary_err = self._eval_primary_err / eval_n if eval_n else float("nan")
            cand_err = self._eval_candidate_err / eval_n if eval_n else float("nan")
            return ShadowReport(
                requests=log.requests,
                candidate_errors=log.candidate_errors,
                samples=n,
                p50_abs_delta_ms=p50a,
                p99_abs_delta_ms=p99a,
                p50_rel_delta=p50r,
                p99_rel_delta=p99r,
                observed_outcomes=eval_n,
                primary_rel_error=primary_err,
                candidate_rel_error=cand_err,
            )

    # ------------------------------------------------------------------
    # Stage 4: promote / demote / roll back
    # ------------------------------------------------------------------
    def promote(self, force: bool = False) -> "ShadowSession":
        """Atomically make the candidate the live model.

        Gated (unless ``force``) on outcome-joined shadow evidence: at
        least ``shadow_min_outcomes`` observed outcomes, candidate
        failure-free, and candidate error within ``promote_margin`` of
        the primary's.  A failed gate raises :class:`PromotionError`
        (the drill for "should have demoted instead").  On success the
        retired primary is retained for :meth:`demote` rollback and the
        drift monitor is re-armed for the new model.  Returns the
        retired shadow wrapper.

        With a ``state_dir``, durable in four steps once the state
        check and the gate pass: the candidate's bundle lands in a fresh
        ``models/<name>/cycle-NNN`` directory, the session swaps, the
        re-armed monitor's drift snapshot is published, and then the
        ``promoted`` manifest names the new bundle.  A crash before that
        last write recovers the old pointer, whose bundle is intact.
        """
        with self._lock:
            if self._state != LifecycleState.SHADOW:
                raise LifecycleError(
                    f"promote is only legal from 'shadow' (state is {self._state!r})"
                )
            report = self.shadow_report()
            if not force:
                if report.candidate_errors:
                    raise PromotionError(
                        f"candidate raised on {report.candidate_errors} shadowed "
                        "requests; refusing to promote a crashing model"
                    )
                if report.observed_outcomes < self.config.shadow_min_outcomes:
                    raise PromotionError(
                        f"only {report.observed_outcomes} outcome-joined shadow "
                        f"observations (need {self.config.shadow_min_outcomes})"
                    )
                if not (
                    report.candidate_rel_error
                    <= report.primary_rel_error * self.config.promote_margin
                ):
                    raise PromotionError(
                        f"candidate observed error {report.candidate_rel_error:.4f} "
                        f"exceeds primary {report.primary_rel_error:.4f} "
                        f"x margin {self.config.promote_margin}"
                    )
            bundle = None
            if self.state_dir is not None:
                bundle = _bundle_path(self.model_name, self._cycle + 1)
                save_bundle(self._candidate.model, self.state_dir / bundle)
            registry = self.service.registry
            retired = registry.replace_session(self.model_name, self._candidate)
            registry.unregister(self.model_name + CANDIDATE_SUFFIX)
            self._rollback_to = self._shadow_primary
            if bundle is not None:
                self._rollback_bundle = self._bundles.get(self.model_name)
                self._bundles[self.model_name] = bundle
            # The monitor's memory describes the old model; re-arm it for
            # the new one, and structures the candidate trained on are no
            # longer "unseen" (re-armed first, so the manifest's drift
            # section already lists them).
            self.monitor.reset(extend_known=self._trained_signatures)
            self._transition(
                LifecycleState.PROMOTED,
                f"candidate err {report.candidate_rel_error:.4f} "
                f"vs primary {report.primary_rel_error:.4f}",
                reset_drift=True,
            )
            return retired

    def demote(self) -> None:
        """Reject the candidate (from ``shadow``) or roll back a
        promotion (from ``promoted``); the previous model serves again.
        One atomic swap either way; completes the cycle.  The re-armed
        monitor's drift snapshot is published first, then the one
        ``demoted`` manifest, which carries the completed cycle and,
        after a rollback, the restored bundle pointer: it never names
        the candidate, and a restart never retrains into the finished
        cycle's checkpoints."""
        with self._lock:
            registry = self.service.registry
            if self._state == LifecycleState.SHADOW:
                registry.replace_session(self.model_name, self._shadow_primary)
                registry.unregister(self.model_name + CANDIDATE_SUFFIX)
                detail = "candidate rejected in shadow"
            elif self._state == LifecycleState.PROMOTED:
                registry.replace_session(self.model_name, self._rollback_to)
                if self._rollback_bundle is not None:
                    self._bundles[self.model_name] = self._rollback_bundle
                detail = "promotion rolled back"
            else:
                raise LifecycleError(
                    f"demote is only legal from 'shadow' or 'promoted' "
                    f"(state is {self._state!r})"
                )
            self.monitor.reset()
            self._finish_cycle()
            self._transition(LifecycleState.DEMOTED, detail, reset_drift=True)
            self._cooldown_until = time.monotonic() + self.config.cooldown_s

    def _finish_cycle(self) -> None:
        # Caller holds self._lock; runs before the transition that ends
        # the cycle, so that transition's manifest counts it.
        self._cycle += 1
        self._candidate = None
        self._shadow_primary = None
        self._shadow_log = None
        self._rollback_to = None
        self._rollback_bundle = None

    # ------------------------------------------------------------------
    # The composed tick
    # ------------------------------------------------------------------
    def step(self) -> DriftReport:
        """One lifecycle tick: poll outcomes, advance the state machine.

        ``live`` + drift trigger (+ enough data, past cooldown) →
        retrain and deploy the shadow; ``shadow`` + enough evidence →
        promote (or demote on a failed gate); ``promoted`` → roll back
        on a fresh trigger, settle to ``live`` once stabilized;
        ``demoted`` → back to ``live`` after the cooldown.
        """
        with self._lock:
            report = self.poll()
            state = self._state
            now = time.monotonic()
            if state == LifecycleState.LIVE:
                if (
                    report.triggered
                    and now >= self._cooldown_until
                    and len(self.training_samples()) >= self.config.min_retrain_outcomes
                ):
                    self.retrain()
                    self.deploy_shadow()
            elif state == LifecycleState.SHADOW:
                shadow = self.shadow_report()
                if (
                    shadow.observed_outcomes >= self.config.shadow_min_outcomes
                    or shadow.candidate_errors
                ):
                    try:
                        self.promote()
                    except PromotionError:
                        self.demote()
            elif state == LifecycleState.PROMOTED:
                if report.triggered:
                    self.demote()  # rollback
                elif report.observations >= self.config.stabilize_outcomes:
                    self._finish_cycle()
                    self._transition(LifecycleState.LIVE, "candidate stabilized")
                    self._cooldown_until = now + self.config.cooldown_s
            elif state == LifecycleState.DEMOTED:
                if now >= self._cooldown_until:
                    self._transition(LifecycleState.LIVE, "cooldown elapsed")
            return report

    # ------------------------------------------------------------------
    # Recovery seam
    # ------------------------------------------------------------------
    def restore_progress(
        self, *, state: Optional[str] = None, cycle: Optional[int] = None,
        cursor: Optional[int] = None, outcomes_lost: Optional[int] = None,
    ) -> None:
        """Adopt durable progress after a cold restart (recovery only).

        Directly installs the persisted lifecycle state, cycle count and
        outcome cursor — deliberately *bypassing* the transition check,
        because recovery is not a transition: the process resumes where
        the durable record says the dead one was.  Only states a restart
        can legitimately land in are accepted (``live``, ``retraining``,
        ``demoted``; :class:`~repro.serving.recovery.ServiceRecovery`
        maps ``shadow``/``promoted`` onto those first, since in-memory
        shadow evidence does not survive a crash by design).
        """
        with self._lock:
            if state is not None:
                if state not in (
                    LifecycleState.LIVE,
                    LifecycleState.RETRAINING,
                    LifecycleState.DEMOTED,
                ):
                    raise LifecycleError(
                        f"cannot restore into state {state!r}: a restarted "
                        "process holds no candidate or shadow evidence"
                    )
                self._state = state
                self.events.append((state, "restored from durable state"))
            if cycle is not None:
                if cycle < 0:
                    raise LifecycleError("cycle must be >= 0")
                self._cycle = int(cycle)
            if cursor is not None:
                if cursor < 0:
                    raise LifecycleError("cursor must be >= 0")
                self._cursor = int(cursor)
            if outcomes_lost is not None:
                self._outcomes_lost = int(outcomes_lost)

    # ------------------------------------------------------------------
    # Background operation
    # ------------------------------------------------------------------
    def start(self) -> "LifecycleManager":
        """Spawn the polling thread driving :meth:`step` (idempotent)."""
        with self._lock:
            if self._thread is None:
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._loop, name="qpp-lifecycle-manager", daemon=True
                )
                self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        with self._lock:
            thread, self._thread = self._thread, None
        self._stop.set()
        if thread is not None:
            thread.join(timeout)

    def _loop(self) -> None:
        while not self._stop.wait(self.config.poll_interval_s):
            try:
                self.step()
            except Exception as error:  # survives transient failures...
                self.errors.append(error)
            # ...but a SimulatedCrash (BaseException) kills the thread,
            # exactly like the process death it stands in for; recovery
            # is a fresh manager resuming retrain() over the same
            # checkpoint_dir.

    def __enter__(self) -> "LifecycleManager":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
