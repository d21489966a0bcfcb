"""Model serving, service-first: requests in, fused batches underneath.

The paper pitches QPP as an online primitive — admission control,
resource management — so the production entry point of this package is
request-shaped, not batch-shaped.  Three tiers, top to bottom:

1. :class:`PredictionService` — **the documented production API.**
   Callers :meth:`~PredictionService.submit` individual plans (from any
   number of threads) and get :class:`Prediction` futures back; a
   drain loop takes whatever is queued, up to ``max_batch_size``, as
   soon as it is free and executes that mixed-structure batch through
   the routed model's session.  Requests that arrive during a forward form the
   next batch, so batch size follows load with no timer
   (``max_wait_ms`` adds an opt-in linger).  The service owns model
   routing (a name per request, resolved through a
   :class:`ModelRegistry`, hot-swappable under traffic), backpressure
   (bounded queue + deadline admission, rejecting with typed
   :class:`~repro.serving.service.ServiceError` subclasses), clean
   start/stop draining semantics, and a :meth:`~PredictionService.stats`
   snapshot (queue depth, coalesced batch sizes, p50/p99 latency, and
   feature-cache hit/miss/eviction counters aggregated across sessions).

2. :class:`InferenceSession` — the synchronous building block the
   service drains into.  A batch of at most
   :attr:`InferenceSession.MAX_PLAN_BY_PLAN` (4) plans — the usual
   batch when the drain loop keeps up — runs plan by plan, each plan
   through its structure's memoized one-plan
   :class:`~repro.core.levels.LevelPlan`, so it compiles nothing and
   each value equals its batch-of-one value; below that size fusion
   saves less than its compile costs.  A larger batch is bucketed by
   structure signature (in the canonical sorted-signature order that
   training's :func:`repro.core.batching.group_by_structure` also
   uses) and compiled into one level plan — numpy over each
   structure's cached index arrays.  Features come as one matrix per
   operator type: each plan's rows come from a bounded plan-identity
   feature-vector cache when its digest hits (byte-for-byte the rows a
   miss would compute), the misses run through one compiled feature
   program (:mod:`repro.featurize.compiled`) per type, and one ``take``
   per type (after one concatenate, in a fused batch) puts the rows in
   the plan's step order.  Each plan, or the whole fused batch, then
   runs tape-free, and the root rows scatter back to request order.
   ``predict`` is a batch of one through the same path.  Every predict
   entry point raises :class:`NonFinitePrediction` rather than return
   NaN.  Sessions are single-threaded by design — the service's drain
   loop is their serialization point.

3. :class:`~repro.core.levels.LevelPlan` (in ``repro.core``) — the
   fused executor both of the above bottom out in: one matmul per unit
   type per tree depth across every structure bucket, each step's input
   assembled with one feature-block copy and one gather per child slot,
   its layers run directly (a one-row step as a 1-D vector chain);
   identical numerics to the taped per-plan ``model.predict`` reference
   at <= 1e-9.

:class:`ModelRegistry` manages the named models behind all of it
(in-memory or loaded from :func:`~repro.core.bundle.save_bundle`
directories), one long-lived warmed session per model.

Failure-mode contract
---------------------
There is one contract, and every guard in it always runs: plan
validation, deadline admission, poison isolation and a per-model
circuit breaker.  The only choice, ``ResiliencePolicy(fallback=...)``,
is what a request whose model is down receives: a typed error (the
default) or a degraded value from the fallback ladder.  Every
operational failure is a typed :class:`ServiceError` subclass;
``except ServiceError`` catches them all, and the concrete type says
which guard fired.  The full contract — every error, when it fires, and
what state it leaves behind:

**Rejected at the submit site** (nothing queues; for ``submit_many``
the whole burst is rejected all-or-nothing):

* :class:`InvalidPlanError` — a plan failed
  :func:`repro.plans.validate.validate_plan` (wrong arity, missing
  properties, negative estimates); the underlying
  :class:`~repro.plans.validate.PlanValidationError` is ``__cause__``.
* :class:`UnknownModelError` — the request routed to a name the
  registry does not hold (or no default model is configured).
* :class:`QueueFullError` — bounded-queue backpressure
  (``max_queue_depth``).
* :class:`DeadlineExceededError` (``shed_at="admission"``) — the
  service's own queue-wait prediction (drain-rate EWMA x queue depth +
  what remains of a configured window) already exceeds the request's
  ``deadline_ms``.  Requests submitted without a deadline have none.
* :class:`CircuitOpenError` — the routed model's breaker is open under
  the default ``fallback=False`` (with ``fallback=True`` the request is
  admitted and served degraded).
* :class:`ServiceStoppedError` — the service is stopped.

**Failed at execution** (delivered through the :class:`Prediction`
handle; all other requests of the coalesced batch are unaffected):

* :class:`DeadlineExceededError` (``shed_at="execution"``) — the
  deadline expired in the queue; the request was shed before the
  forward pass (it consumed no model time).
* :class:`NonFinitePrediction` — the model produced NaN/Inf for this
  plan.  Raised by :meth:`InferenceSession.predict_batch` itself
  (naming model and plan signatures, never returned silently) and
  treated by the service as a *poison request*: only the offending
  handles fail, the rest of the batch completes.
* **Poison isolation** — any other error out of a coalesced batch
  triggers bisection: the batch is split and retried down to
  singletons, so exactly the offending request(s) fail with the
  underlying error and every healthy request completes.  The bisection
  probes only *identify* the poison; the full survivor set is then
  recomputed as one batch, so delivered values are bit-identical to a
  run that coalesced exactly the surviving requests — and a transient
  fault (fail once, succeed on retry) recovers with zero failures and
  values bit-identical to the fault-free run.
* :class:`CircuitOpenError` — the breaker opened while the request was
  queued (fast-failed without touching the model; only under
  ``fallback=False``).

**Degraded operation** (requests *complete*, flagged in ``stats()``):

* Under ``ResiliencePolicy(fallback=True)``, a model whose primary
  fused path fails terminally — or whose breaker is open — is served
  through the one fixed ladder,
  :func:`~repro.serving.resilience.fallback_latencies`: the taped
  per-plan ``QPPNet.predict`` reference, then, for a group that rung
  fails, the :mod:`repro.optimizer.cost` heuristic
  (:func:`heuristic_latency_ms`), which answers for every valid plan.
  ``fallback_completed`` counts both rungs; fallback outcomes never
  feed the breaker.
* The per-model :class:`~repro.serving.resilience.CircuitBreaker`
  opens after :data:`~repro.serving.resilience.BREAKER_THRESHOLD` (5)
  consecutive whole-batch failures, fast-rejects (or falls back) while
  open, admits half-open probes after
  :data:`~repro.serving.resilience.BREAKER_RESET_MS` (1000 ms), and
  closes on the first probe success; ``breaker_states`` in ``stats()``
  exposes each model's state.

State guarantees: a submit-site rejection leaves nothing queued and no
counters but ``rejected`` (and the specific shed counter) touched; an
execution failure settles exactly the affected handles (stats are
committed before handle events fire); the drain loop itself survives
every failure above — a wedged worker would strand futures, so the
last-resort containment in ``_safe_execute`` fails the batch rather
than the thread.  All of it is observable: ``deadline_rejected``,
``deadline_expired``, ``poison_isolated``, ``fallback_completed``,
``breaker_rejected`` and ``breaker_states`` ride along
:class:`ServiceStats`.

**Settlement and outcome feedback** (the serve→observe half of the
model lifecycle):

* a :class:`Prediction` settles exactly once — a second ``_complete`` /
  ``_fail`` raises :class:`PredictionSettledError` instead of silently
  overwriting the delivered value and corrupting stats;
* :meth:`Prediction.observe(actual_ms) <Prediction.observe>` journals
  the query's measured latency into the service's bounded thread-safe
  :class:`~repro.serving.service.OutcomeLog` (``outcomes_recorded``
  rides along :class:`ServiceStats`); misuse — observing a pending or
  failed handle, observing twice, non-finite/non-positive actuals —
  raises :class:`OutcomeError`.

Model-lifecycle state machine
-----------------------------
``serving.lifecycle`` closes the loop on the outcome journal.  One
model's :class:`~repro.serving.lifecycle.LifecycleManager` walks
:class:`~repro.serving.resilience.LifecycleState`::

    live -> retraining -> shadow -> promoted -> live
                |            |         |
                +-> live     +---------+-> demoted -> live

* **live → retraining**: the :class:`~repro.evaluation.drift
  .DriftMonitor` fed by :meth:`LifecycleManager.poll` trips (error-EWMA
  vs the frozen offline baseline, Page–Hinkley mean shift, or
  unseen-structure rate); a *copy* of the live model fine-tunes on the
  observed stream through the durable checkpointed ``Trainer.fit``
  path.  A crash mid-retrain stays in ``retraining`` and the next
  ``retrain()`` resumes bitwise from the last checkpoint.
* **retraining → shadow**: one atomic
  :meth:`ModelRegistry.replace_session` installs a
  :class:`~repro.serving.lifecycle.ShadowSession` — the old model keeps
  answering every request, the candidate rides every batch, and
  disagreement (p50/p99 abs/rel deltas) plus outcome-joined error is
  journaled.  A candidate that raises never affects live traffic.
* **shadow → promoted**: the candidate passed its evidence gate
  (enough observed outcomes, failure-free, error within margin of the
  primary's); one more atomic ``replace_session`` makes it live with
  zero dropped or misrouted requests (routing resolves per executed
  batch — in-flight batches finish on the session they resolved).  The
  retired session is retained.
* **shadow / promoted → demoted**: a failed gate
  (:class:`~repro.serving.resilience.PromotionError`) or a fresh drift
  trigger inside the post-promotion stabilization window swaps the
  previous model back in — same atomic primitive, same zero-downtime
  guarantee.
* **promoted / demoted → live**: the cycle completes once the new model
  stabilizes (or the demotion cooldown elapses); the drift monitor is
  re-armed so the old model's error memory never indicts the new one.

Illegal jumps raise
:class:`~repro.serving.resilience.InvalidLifecycleTransition`; all
lifecycle failures are :class:`~repro.serving.resilience
.LifecycleError`, itself a :class:`ServiceError`.

Durability contract
-------------------
``serving.journal`` + ``serving.recovery`` make the serve→observe→
retrain loop survive process death.  One *state directory* holds
everything: an append-only, segment-rotated, per-record-checksummed
outcome journal (``journal/``), a periodic atomic drift-monitor
snapshot (``drift.json``), retrain checkpoints (``checkpoints/``),
versioned model bundles (``models/``) and one atomically-replaced
manifest (``manifest.json``) tying them together.
:meth:`~repro.serving.recovery.ServiceRecovery.create` arms it on first
boot; after a crash :meth:`~repro.serving.recovery.ServiceRecovery
.recover` rebuilds the full stack from the directory alone.

**What survives a crash at any instant:**

* every outcome record whose journal frame was fsynced (batched — at
  most ``fsync_every - 1`` recent records ride only in the page cache;
  every write goes through :mod:`repro.core.durable`); replay order is
  append order, and sequence numbering continues where it stopped;
* the drift detectors *exactly*: the snapshot stores EWMA,
  Page–Hinkley scalars and the unseen-structure window as JSON (floats
  round-trip bitwise), never covers a non-durable journal record, and is
  republished before a promotion's or demotion's manifest; recovery
  replays only the journal suffix past the snapshot cursor — after the
  recovery poll, detector state is identical to a process that never
  died;
* an interrupted fine-tune: recovery lands back in ``retraining``,
  training samples re-derive deterministically from the replayed
  journal, and the next ``retrain()`` resumes bitwise from the cycle's
  last checkpoint;
* the live model pointer: every transition is one atomic manifest
  write carrying state and pointer together.  Once its state check and
  gate pass, a promotion saves the candidate's bundle to a fresh
  versioned directory *before* the swap, and the ``promoted`` manifest
  is the one that names it; a rollback restores the previous pointer in
  the ``demoted`` manifest itself, so a ``demoted`` manifest always
  names the restored bundle.  The manifest only ever names complete
  bundles, and a refused or illegal promotion writes nothing;
* the cycle count: the manifest that ends a cycle (``demoted``, or
  ``live`` after stabilization) already counts it, and recovering a
  ``promoted`` manifest completes its cycle, so the next retrain starts
  in a fresh checkpoint directory instead of resuming a finished one.

**Torn and rotten disk state degrades, never raises:** journal damage
is repaired or quarantined by the replay rules of
:mod:`repro.serving.journal`, and write failures count in the journal's
``io_errors`` and the manager's ``snapshot_errors``/``manifest_errors``.
Only unrecoverable damage (missing/corrupt manifest, unloadable bundle)
raises :class:`~repro.serving.resilience.RecoveryError`.

**Lost by design:** un-fsynced tail records; in-memory shadow evidence
(a crash in ``shadow`` recovers into ``retraining`` — the candidate is
re-derivable from checkpoints, its disagreement journal is not); the
post-promotion rollback target (a crash in ``promoted`` settles to
``live`` on whichever bundle the manifest last named); and outcomes
evicted before the poller saw them, which are counted
(``outcomes_lost``) rather than silently skipped.
"""

from .journal import OutcomeJournal, ReplayResult
from .registry import ModelRegistry
from .resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    InvalidLifecycleTransition,
    InvalidPlanError,
    JournalError,
    LifecycleError,
    LifecycleState,
    NonFinitePrediction,
    OutcomeError,
    PredictionSettledError,
    PromotionError,
    RecoveryError,
    ResiliencePolicy,
    ServiceError,
    heuristic_latency_ms,
)
from .service import (
    OutcomeLog,
    OutcomeRecord,
    Prediction,
    PredictionService,
    QueueFullError,
    ServiceStats,
    ServiceStoppedError,
    UnknownModelError,
)
from .session import InferenceSession, SessionStats

# Imported last: lifecycle pulls in repro.evaluation (drift), whose
# package __init__ imports back into repro.serving — by now every name
# it needs is bound, so the cycle resolves.  recovery builds on
# lifecycle, so it comes after.
from .lifecycle import (
    LifecycleConfig,
    LifecycleManager,
    ShadowLog,
    ShadowReport,
    ShadowSession,
)
from .recovery import (
    RecoveredStack,
    RecoveryReport,
    ServiceRecovery,
)

__all__ = [
    "PredictionService",
    "Prediction",
    "ServiceStats",
    "ServiceError",
    "QueueFullError",
    "ServiceStoppedError",
    "UnknownModelError",
    "InvalidPlanError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "NonFinitePrediction",
    "ResiliencePolicy",
    "CircuitBreaker",
    "heuristic_latency_ms",
    "InferenceSession",
    "SessionStats",
    "ModelRegistry",
    "OutcomeLog",
    "OutcomeRecord",
    "OutcomeError",
    "PredictionSettledError",
    "LifecycleError",
    "LifecycleState",
    "InvalidLifecycleTransition",
    "PromotionError",
    "LifecycleConfig",
    "LifecycleManager",
    "ShadowSession",
    "ShadowLog",
    "ShadowReport",
    "OutcomeJournal",
    "ReplayResult",
    "JournalError",
    "RecoveryError",
    "ServiceRecovery",
    "RecoveredStack",
    "RecoveryReport",
]
