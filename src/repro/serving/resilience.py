"""Fault-tolerance primitives for the serving stack.

This module holds the pieces :class:`~repro.serving.service.PredictionService`
composes into its failure-mode contract (see the package docstring of
:mod:`repro.serving` for the full contract):

* the **typed errors** a degraded service surfaces —
  :class:`InvalidPlanError`, :class:`DeadlineExceededError`,
  :class:`CircuitOpenError`, :class:`NonFinitePrediction` — all
  :class:`~repro.serving.service.ServiceError` subclasses, so one
  ``except ServiceError`` catches every operational failure while the
  concrete type says exactly which guard fired;
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine over *consecutive whole-batch failures* of one model, so a
  wedged model fails fast (or routes to a fallback) instead of burning a
  bisection probe on every coalesced batch;
* :class:`FallbackChain` — graceful degradation: an ordered list of
  increasingly crude predictors tried when the primary fused path is
  broken or the breaker is open.  :func:`default_fallback_chain` is the
  documented ladder *fused -> taped per-plan reference -> cost
  heuristic*: the taped tier re-runs each plan through
  :meth:`QPPNet.predict` (the <= 1e-9 reference path, sidestepping any
  defect in the fused/compiled tiers), and the last-resort tier maps the
  optimizer's own cumulative cost estimate (``Total Cost``, computed by
  :mod:`repro.optimizer.cost`) to milliseconds — no neural network at
  all, but never an unserved request;
* :class:`ResiliencePolicy` — the service-level knobs bundling all of
  the above (plan validation, poison isolation, breaker thresholds,
  deadline admission) into one value with safe defaults.

Everything here is deliberately session-agnostic: the breaker and chain
never import :mod:`repro.serving.session` or ``service``, so the session
can raise :class:`NonFinitePrediction` and the service can compose the
rest without an import cycle.
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

    Only raised when no fallback chain is configured — with a chain, an
    open breaker routes to the fallback instead of rejecting.
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
      chain.  After ``reset_ms`` the next execution attempt is allowed
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
# Fallback chain: fused -> taped reference -> cost heuristic
# ----------------------------------------------------------------------
#: Default cost-unit -> milliseconds scale for the heuristic tier.  The
#: optimizer's cost model (:mod:`repro.optimizer.cost`) normalizes one
#: sequential page read to 1.0 cost unit; ~10us per sequential 8KB page
#: is an SSD-era order of magnitude.  This is an *uncalibrated* degraded
#: -mode estimate — accurate to within "which of these queries is the
#: expensive one", which is all an admission controller needs when every
#: learned tier is down.
DEFAULT_MS_PER_COST_UNIT = 0.01


def heuristic_latency_ms(
    plan: PlanNode, ms_per_cost_unit: float = DEFAULT_MS_PER_COST_UNIT
) -> float:
    """Model-free latency estimate from the optimizer's own cost units.

    The root's ``Total Cost`` property is the cumulative abstract cost
    :mod:`repro.optimizer.cost` assigned to the whole plan; scaling it by
    ``ms_per_cost_unit`` yields the crudest serviceable latency estimate
    — the last rung of :func:`default_fallback_chain`.  Plans missing
    the property (or carrying a non-finite value) fall back to a
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
        cost = float(sum(1 for _ in plan.preorder())) / max(
            ms_per_cost_unit, 1e-12
        ) * MIN_PREDICTION_MS
    return max(MIN_PREDICTION_MS, cost * ms_per_cost_unit)


#: One fallback tier: ``(session, plans) -> latencies``.  ``session`` is
#: whatever the registry holds for the routed model (possibly duck-typed;
#: tiers must tolerate missing attributes by raising — the chain moves on).
FallbackTier = Callable[[object, Sequence[PlanNode]], Sequence[float]]


def taped_reference_tier(session: object, plans: Sequence[PlanNode]) -> list[float]:
    """Tier 2: per-plan taped/compiled reference through ``QPPNet.predict``.

    Sidesteps the session entirely (its pools, caches and fused level
    plans — any of which the primary failure may implicate) and runs each
    plan through the model's own single-plan path.  Slow but independent.
    """
    model = getattr(session, "model", None)
    if model is None or not hasattr(model, "predict"):
        raise TypeError("session exposes no .model with a predict() method")
    return [float(model.predict(plan)) for plan in plans]


def heuristic_cost_tier(session: object, plans: Sequence[PlanNode]) -> list[float]:
    """Tier 3: the model-free :func:`heuristic_latency_ms` estimate."""
    return [heuristic_latency_ms(plan) for plan in plans]


class FallbackChain:
    """Ordered degradation ladder tried when the primary path is down.

    Each tier is a :data:`FallbackTier` callable; :meth:`predict` runs
    them in order and returns the first tier that yields a finite,
    correctly-sized result (a tier producing NaN/Inf or the wrong count
    is treated exactly like a tier that raised).  If every tier fails,
    the *last* tier's error propagates (earlier errors chain as causes).
    """

    def __init__(self, tiers: Sequence[tuple[str, FallbackTier]]) -> None:
        if not tiers:
            raise ValueError("FallbackChain needs at least one tier")
        self.tiers = list(tiers)

    def names(self) -> list[str]:
        return [name for name, _ in self.tiers]

    def predict(
        self, session: object, plans: Sequence[PlanNode]
    ) -> tuple[list[float], str]:
        """Run ``plans`` through the first healthy tier.

        Returns ``(latencies, tier_name)``; raises the final tier's
        failure when the whole ladder is exhausted.
        """
        error: Optional[BaseException] = None
        for name, tier in self.tiers:
            try:
                values = [float(v) for v in tier(session, plans)]
                if len(values) != len(plans):
                    raise ServiceError(
                        f"fallback tier {name!r} returned {len(values)} "
                        f"predictions for {len(plans)} plans"
                    )
                if not all(math.isfinite(v) for v in values):
                    raise NonFinitePrediction(
                        f"fallback tier {name!r}",
                        [p.structure_signature() for p in plans],
                    )
                return values, name
            except BaseException as tier_error:  # noqa: BLE001 — chained below
                if error is not None:
                    tier_error.__cause__ = error
                error = tier_error
        assert error is not None
        raise error


def default_fallback_chain() -> FallbackChain:
    """The documented ladder: taped per-plan reference, then cost heuristic.

    (The fused session path is the chain's implicit tier 1 — it is the
    primary the service already attempted before consulting the chain.)
    """
    return FallbackChain(
        [("taped", taped_reference_tier), ("heuristic", heuristic_cost_tier)]
    )


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResiliencePolicy:
    """Service-level resilience knobs (``PredictionService(resilience=...)``).

    The default policy is safe-by-default: plans are validated at the
    boundary, poisoned batches are bisected so healthy requests survive,
    and a per-model breaker opens after 5 consecutive whole-batch
    failures.  There is no fallback chain and no default deadline unless
    configured — both change *what* a request receives, not just whether
    it fails, so they are opt-in.
    """

    #: Run :func:`repro.plans.validate.validate_plan` on every submitted
    #: plan; malformed plans raise :class:`InvalidPlanError` at the
    #: submit site instead of failing inside the drain loop.
    validate_plans: bool = True
    #: Bisect failing coalesced batches so only offending requests fail
    #: (``False`` restores fail-the-whole-batch semantics).
    poison_isolation: bool = True
    #: Consecutive whole-batch failures that open a model's breaker;
    #: ``0`` disables circuit breaking entirely.
    breaker_threshold: int = 5
    #: How long an open breaker waits before admitting a half-open probe.
    breaker_reset_ms: float = 1000.0
    #: Degradation ladder consulted when the primary path fails
    #: terminally or the breaker is open; ``None`` means typed rejection.
    fallback: Optional[FallbackChain] = None
    #: Deadline applied to requests that pass none (``None`` = no deadline).
    default_deadline_ms: Optional[float] = None
    #: Shed deadline-carrying requests at the submit site when the
    #: predicted queue wait (EWMA of drain throughput) exceeds the
    #: deadline.  Requires deadlines to do anything.
    admission_control: bool = True
    #: Monotonic clock shared by the breakers (injectable for tests).
    clock: Callable[[], float] = field(default=time.monotonic)

    def __post_init__(self) -> None:
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0 (0 disables)")
        if self.breaker_reset_ms < 0:
            raise ValueError("breaker_reset_ms must be >= 0")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive when set")

    def make_breaker(self) -> Optional[CircuitBreaker]:
        """A fresh per-model breaker, or ``None`` when breaking is disabled."""
        if self.breaker_threshold == 0:
            return None
        return CircuitBreaker(
            self.breaker_threshold, self.breaker_reset_ms, clock=self.clock
        )
