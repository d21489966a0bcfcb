"""Fault-tolerance primitives for the serving stack.

This module holds the pieces :class:`~repro.serving.service.PredictionService`
composes into its one failure-mode contract (see the package docstring
of :mod:`repro.serving` for the full contract):

* the **typed errors** a degraded service surfaces —
  :class:`InvalidPlanError`, :class:`DeadlineExceededError`,
  :class:`CircuitOpenError`, :class:`NonFinitePrediction` — all
  :class:`~repro.serving.service.ServiceError` subclasses, so one
  ``except ServiceError`` catches every operational failure while the
  concrete type says exactly which guard fired;
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine over *consecutive whole-batch failures* of one model, so a
  wedged model fails fast (or falls back) instead of burning a
  bisection probe on every coalesced batch.  The service gives every
  model one, at :data:`BREAKER_THRESHOLD` and :data:`BREAKER_RESET_MS`;
* :func:`fallback_latencies` — the one degradation ladder, tried when
  the primary fused path is broken or the breaker is open: the taped
  per-plan :meth:`QPPNet.predict` reference (the <= 1e-9 reference
  path, sidestepping any defect in the fused level-plan executor), then
  :func:`heuristic_latency_ms`, which maps the optimizer's own
  cumulative cost estimate (``Total Cost``, computed by
  :mod:`repro.optimizer.cost`) to milliseconds — no neural network at
  all, but never an unserved request;
* :class:`ResiliencePolicy` — the one choice a caller makes: whether a
  request whose model is down gets a typed error (the default) or a
  degraded value from the ladder.  Validation, poison isolation,
  breaking and deadline admission are not optional.

Everything here is deliberately session-agnostic: the breaker and the
ladder never import :mod:`repro.serving.session` or ``service``, so the
session can raise :class:`NonFinitePrediction` and the service can
compose the rest without an import cycle.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.model import MIN_PREDICTION_MS, NonFiniteOutput
from repro.plans.node import PlanNode


class ServiceError(RuntimeError):
    """Base class for every PredictionService failure mode.

    Defined here (and re-exported by :mod:`repro.serving.service`) so the
    resilience primitives and the service share one error taxonomy
    without an import cycle.
    """


class InvalidPlanError(ServiceError, ValueError):
    """A submitted plan failed structural validation at the boundary.

    Raised by ``submit`` / ``submit_many`` *before anything queues*
    (all-or-nothing bursts stay all-or-nothing), wrapping the underlying
    :class:`~repro.plans.validate.PlanValidationError` as ``__cause__``.
    Without this guard a malformed plan would fail inside the drain loop
    — after coalescing, where its featurization error would have to be
    disentangled from every innocent request in the batch.
    """


class DeadlineExceededError(ServiceError, TimeoutError):
    """A request's deadline cannot be (or was not) met.

    Two fire points, distinguishable by :attr:`shed_at`:

    * ``"admission"`` — the service's own latency prediction (an EWMA of
      per-request drain time — we are a latency predictor, so we predict
      our own) says the queue wait alone exceeds ``deadline_ms``; the
      request is shed at the submit site and never queues;
    * ``"execution"`` — the deadline expired while the request was
      queued; it is shed just before its batch executes, paying no
      forward pass.
    """

    def __init__(self, message: str, *, deadline_ms: float, shed_at: str) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms
        #: ``"admission"`` or ``"execution"``.
        self.shed_at = shed_at


class CircuitOpenError(ServiceError):
    """The routed model's circuit breaker is open (fast typed rejection).

    Only raised under the default ``ResiliencePolicy(fallback=False)`` —
    with ``fallback=True``, an open breaker routes to the fallback
    ladder instead of rejecting.
    """

    def __init__(self, model: str, retry_after_ms: float) -> None:
        super().__init__(
            f"circuit breaker for model {model!r} is open "
            f"(retry after ~{retry_after_ms:.0f}ms)"
        )
        self.model = model
        self.retry_after_ms = retry_after_ms


class NonFinitePrediction(ServiceError, NonFiniteOutput):
    """A model produced NaN/Inf predictions instead of latencies.

    Raised by every :class:`InferenceSession` predict entry point (never
    silently returned) naming the model and the offending plans'
    structure signatures.  It is the serving twin of the core
    :class:`~repro.core.NonFiniteOutput` (an ``ArithmeticError``), which
    it subclasses.  :attr:`indices` are batch-relative positions, which lets
    the service treat each non-finite row as a *poison request* — failing
    exactly those handles and completing the rest — rather than as a
    whole-batch failure needing bisection.
    """

    def __init__(
        self,
        model: str,
        signatures: Sequence[str],
        indices: Optional[Sequence[int]] = None,
    ) -> None:
        shown = ", ".join(signatures[:3]) + ("..." if len(signatures) > 3 else "")
        super().__init__(
            f"non-finite predictions from model {model} "
            f"for {len(signatures)} plan(s) [{shown}]"
        )
        self.model = model
        self.signatures = list(signatures)
        #: Positions within the submitted batch (``None`` when unknown).
        self.indices = list(indices) if indices is not None else None


class PredictionSettledError(ServiceError):
    """A Prediction handle was settled (completed or failed) twice.

    Settlement is terminal: ``_complete`` / ``_fail`` on a handle whose
    event already fired would silently overwrite the delivered value and
    double-count the service's completion/failure stats.  Raising instead
    turns a double-settlement bug into a loud typed error at the second
    settle site (the first caller's value stands, untouched).
    """


class OutcomeError(ServiceError):
    """An observed outcome could not be recorded against a prediction.

    Raised by :meth:`Prediction.observe` / ``PredictionService.record_outcome``
    when the handle is still pending (there is no predicted value yet),
    failed (nothing to compare an observation against), already observed
    (a second ``observe`` would double-feed the drift monitors), or the
    actual latency is non-finite or non-positive.
    """


class JournalError(ServiceError):
    """Misconfiguration of the on-disk outcome journal (bad segment
    size / flush interval).  Runtime I/O failures are deliberately *not*
    raised — :class:`~repro.serving.journal.OutcomeJournal` degrades to
    its ``io_errors`` counter so a sick disk never kills serving."""


class RecoveryError(ServiceError):
    """A cold restart could not rebuild the serving stack.

    Raised by :class:`~repro.serving.recovery.ServiceRecovery` when the
    state directory's manifest is missing, unverifiable, or names model
    bundles that cannot be loaded.  Journal/snapshot damage never raises
    — it degrades to the typed counters on the recovery report."""


class LifecycleError(ServiceError):
    """Base class for model-lifecycle failures (retrain/shadow/promote)."""


class InvalidLifecycleTransition(LifecycleError):
    """A lifecycle operation was attempted from the wrong state."""

    def __init__(self, current: str, requested: str) -> None:
        super().__init__(
            f"cannot transition lifecycle state {current!r} -> {requested!r} "
            f"(allowed from {current!r}: "
            f"{sorted(LifecycleState.TRANSITIONS.get(current, ()))})"
        )
        self.current = current
        self.requested = requested


class PromotionError(LifecycleError):
    """The candidate failed its promotion gate (stay in shadow / demote)."""


class LifecycleState:
    """The model-lifecycle state machine (see ``serving.lifecycle``).

    ::

        live -> retraining -> shadow -> promoted -> live
                    |            |         |
                    +-> live     +---------+-> demoted -> live

    * **live** — one model serves; outcomes feed the drift monitor.
    * **retraining** — drift triggered; a copy of the live model is
      fine-tuning on the observed stream (durable: a crash here resumes
      from the last checkpoint, re-entering this same state).
    * **shadow** — the candidate rides every live batch; the old model
      answers, disagreement and outcome-joined errors are logged.
    * **promoted** — the candidate took over atomically; the retired
      session is retained so a post-promotion regression can roll back.
    * **demoted** — the candidate was rejected (from shadow) or rolled
      back (from promoted); the previous model serves again.

    :meth:`check` validates a transition and raises
    :class:`InvalidLifecycleTransition` on anything not drawn above.
    """

    LIVE = "live"
    RETRAINING = "retraining"
    SHADOW = "shadow"
    PROMOTED = "promoted"
    DEMOTED = "demoted"

    TRANSITIONS: dict[str, frozenset] = {
        LIVE: frozenset({RETRAINING}),
        RETRAINING: frozenset({SHADOW, LIVE}),
        SHADOW: frozenset({PROMOTED, DEMOTED}),
        PROMOTED: frozenset({LIVE, DEMOTED}),
        DEMOTED: frozenset({LIVE}),
    }

    @classmethod
    def check(cls, current: str, requested: str) -> str:
        if requested not in cls.TRANSITIONS.get(current, frozenset()):
            raise InvalidLifecycleTransition(current, requested)
        return requested


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Closed / open / half-open breaker over consecutive batch failures.

    * **closed** — traffic flows; every *whole-batch* failure (a batch
      the service could not complete even after poison isolation and
      recovery) increments a consecutive-failure counter, any success
      resets it.  Reaching ``threshold`` opens the breaker.
    * **open** — the primary path is not attempted at all; requests fail
      fast with :class:`CircuitOpenError` or route to the fallback
      ladder.  After ``reset_ms`` the next execution attempt is allowed
      through as a probe (half-open).
    * **half-open** — probes flow to the primary; the first success
      closes the breaker, any failure re-opens it (and restarts the
      ``reset_ms`` clock).

    Individually isolated poison requests do *not* count as failures:
    a batch that completes every healthy request is evidence the model
    works.  Thread-safe; the ``clock`` is injectable so tests can drive
    the open -> half-open transition deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        threshold: int,
        reset_ms: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_ms < 0:
            raise ValueError("reset_ms must be >= 0")
        self.threshold = threshold
        self.reset_ms = reset_ms
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current state, advancing open -> half-open when the reset elapsed."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (
            self._state == self.OPEN
            and (self._clock() - self._opened_at) * 1e3 >= self.reset_ms
        ):
            self._state = self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the primary path be attempted right now?

        ``True`` when closed or half-open (probe); ``False`` while open.
        Sits on the per-request submit path, so the common case — breaker
        closed — is a single lock-free attribute read (GIL-atomic; a
        request racing the closed->open transition may slip through to
        the primary once, which is indistinguishable from it having been
        submitted a moment earlier).
        """
        if self._state == self.CLOSED:
            return True
        with self._lock:
            return self._state_locked() != self.OPEN

    def retry_after_ms(self) -> float:
        """Milliseconds until an open breaker admits its next probe."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self.reset_ms - (self._clock() - self._opened_at) * 1e3)

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            self._consecutive_failures += 1
            if state == self.HALF_OPEN or self._consecutive_failures >= self.threshold:
                self._state = self.OPEN
                self._opened_at = self._clock()


# ----------------------------------------------------------------------
# Fallback ladder: taped reference, then cost heuristic
# ----------------------------------------------------------------------
#: Cost-unit -> milliseconds scale for the heuristic rung.  The
#: optimizer's cost model (:mod:`repro.optimizer.cost`) normalizes one
#: sequential page read to 1.0 cost unit; ~10us per sequential 8KB page
#: is an SSD-era order of magnitude.  This is an *uncalibrated* degraded
#: -mode estimate — accurate to within "which of these queries is the
#: expensive one", which is all an admission controller needs when every
#: learned path is down.
MS_PER_COST_UNIT = 0.01


def heuristic_latency_ms(plan: PlanNode) -> float:
    """Model-free latency estimate from the optimizer's own cost units.

    The root's ``Total Cost`` property is the cumulative abstract cost
    :mod:`repro.optimizer.cost` assigned to the whole plan; scaling it by
    :data:`MS_PER_COST_UNIT` yields the crudest serviceable latency
    estimate — the last rung of :func:`fallback_latencies`.  Plans
    missing the property (or carrying a non-finite value) fall back to a
    per-node floor so the estimate is always finite and positive.
    """
    cost = plan.props.get("Total Cost")
    try:
        cost = float(cost) if cost is not None else float("nan")
    except (TypeError, ValueError):
        cost = float("nan")
    if not math.isfinite(cost) or cost < 0.0:
        # Degenerate plan: one floor-latency per operator keeps the
        # estimate finite and monotone in plan size.
        n_nodes = float(sum(1 for _ in plan.preorder()))
        cost = n_nodes / MS_PER_COST_UNIT * MIN_PREDICTION_MS
    return max(MIN_PREDICTION_MS, cost * MS_PER_COST_UNIT)


def fallback_latencies(session: object, plans: Sequence[PlanNode]) -> list[float]:
    """The fixed degradation ladder behind ``ResiliencePolicy(fallback=True)``.

    The fused session path is the primary the service already tried.
    The first rung re-runs each plan through ``session.model.predict``,
    the taped per-plan reference: it shares no code with the session's
    pools, caches or :class:`~repro.core.levels.LevelPlan`, any of which
    the primary failure may implicate.  If that rung fails for the group
    — it raises, or any value is NaN/Inf — every plan gets
    :func:`heuristic_latency_ms` instead, which answers for any plan
    that passed validation.
    """
    try:
        values = [float(session.model.predict(plan)) for plan in plans]
        if all(math.isfinite(v) for v in values):
            return values
    except Exception:  # noqa: BLE001 — any taped failure degrades a rung
        pass
    return [heuristic_latency_ms(plan) for plan in plans]


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
#: Consecutive whole-batch failures that open a model's breaker.
BREAKER_THRESHOLD = 5
#: How long an open breaker waits before admitting a half-open probe.
BREAKER_RESET_MS = 1000.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """What a failing model's requests get (``PredictionService(resilience=...)``).

    Plan validation, poison isolation, a per-model breaker
    (:data:`BREAKER_THRESHOLD` failures, :data:`BREAKER_RESET_MS` reset)
    and deadline admission always run.  The policy only decides what a
    request receives when its model's primary path is down: a typed
    error by default, or — with ``fallback=True`` — a degraded value
    from :func:`fallback_latencies`.
    """

    #: Serve groups whose primary path failed terminally, or whose
    #: breaker is open, through :func:`fallback_latencies` instead of
    #: failing them.
    fallback: bool = False
    #: Monotonic clock shared by the breakers (injectable for tests).
    clock: Callable[[], float] = field(default=time.monotonic)
