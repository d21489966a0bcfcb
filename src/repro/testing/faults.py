"""Deterministic fault injectors.

Every injector is fully deterministic — faults fire on exact call
counts, exact plan identities or exact epochs, never randomly — so a
chaos test that fails replays identically under the same seed.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.plans.node import PlanNode

PathLike = Union[str, "os.PathLike[str]"]


class InjectedFault(RuntimeError):
    """The error a fault injector raises in place of real work."""


class SimulatedCrash(BaseException):
    """A simulated process death (kill -9 stand-in).

    Deliberately a ``BaseException``: ordinary ``except Exception``
    recovery code must not be able to swallow it, mirroring how a real
    kill gives the process no chance to handle anything.
    """


def kill_at_epoch(epoch: int) -> Callable[[int], None]:
    """``Trainer.fit`` epoch hook that dies after ``epoch`` completes.

    The hook fires after the epoch's checkpoint is written, so the
    simulated crash lands exactly where a real mid-fit kill is
    recoverable from: the last published checkpoint.
    """
    if epoch < 1:
        raise ValueError("epoch must be >= 1")

    def hook(current: int) -> None:
        if current == epoch:
            raise SimulatedCrash(f"injected kill after epoch {current}")

    return hook


def raise_on_calls(
    fn: Callable,
    calls: Iterable[int] = (),
    every: int = 0,
    error: Optional[Callable[[], BaseException]] = None,
) -> Callable:
    """Wrap ``fn`` to raise on chosen invocations (1-based call count).

    ``calls`` names exact call numbers; ``every`` additionally fails
    every Nth call.  ``error`` builds the exception (default
    :class:`InjectedFault`).
    """
    fail_calls = frozenset(calls)
    make_error = error or (lambda: InjectedFault("injected fault"))
    count = 0

    def wrapped(*args, **kwargs):
        nonlocal count
        count += 1
        if count in fail_calls or (every and count % every == 0):
            raise make_error()
        return fn(*args, **kwargs)

    return wrapped


def torn_tail(path: PathLike, drop_bytes: int) -> int:
    """Simulate a torn final write: truncate ``drop_bytes`` off the file.

    The canonical crash-mid-append disk state — the last record's frame
    or payload is only partially on disk.  Returns the file's new size.
    """
    if drop_bytes < 0:
        raise ValueError("drop_bytes must be >= 0")
    size = os.path.getsize(path)
    new_size = max(0, size - drop_bytes)
    os.truncate(path, new_size)
    return new_size


def flip_byte(path: PathLike, offset: int) -> int:
    """Simulate bit rot: XOR the byte at ``offset`` with ``0xFF``.

    Negative offsets count from the end of the file (``-1`` is the last
    byte).  Flipping a payload byte makes exactly one journal record's
    CRC fail; flipping inside a segment header corrupts the whole
    segment.  Returns the absolute offset that was flipped.
    """
    size = os.path.getsize(path)
    if offset < 0:
        offset += size
    if not 0 <= offset < size:
        raise ValueError(f"offset {offset} outside file of {size} bytes")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return offset


def failing_fsync(
    calls: Iterable[int] = (),
    every: int = 0,
    error: Optional[Callable[[], BaseException]] = None,
) -> Callable[[int], None]:
    """An ``os.fsync`` stand-in that fails on chosen invocations.

    Plugs into :class:`~repro.serving.journal.OutcomeJournal`'s
    ``fsync_fn`` seam, the journal's record fsync (the sick-disk drill:
    durability must degrade to ``io_errors``, never to an exception).
    ``calls`` names exact 1-based call numbers; ``every`` additionally
    fails every Nth call; ``error`` builds the exception (default
    ``OSError(EIO)``).  Successful calls delegate to the real
    ``os.fsync``.
    """
    make_error = error or (lambda: OSError(5, "injected fsync failure"))
    return raise_on_calls(os.fsync, calls=calls, every=every, error=make_error)


class FaultySession:
    """An inference session wrapper that misbehaves deterministically.

    Wraps anything with the :class:`~repro.serving.session
    .InferenceSession` ``predict`` / ``predict_batch`` interface and
    injects, in precedence order per ``predict_batch`` call:

    1. ``extra_latency_ms`` — sleep before doing anything (deadline and
       queue-pressure tests);
    2. ``fail_calls`` / ``fail_every`` — raise :class:`InjectedFault`
       (or ``error()``) on those 1-based call counts, *before* touching
       the wrapped session (transient whole-batch faults);
    3. ``poison_plans`` — raise whenever any of these plan objects
       (matched by identity) is in the batch: the classic poison request
       that keeps killing every batch it rides in until isolated;
    4. ``nan_plans`` — run the real batch, then overwrite these plans'
       rows with NaN: a silently-wrong model output, exercising the
       caller's duck-typed non-finite promotion.

    Everything else (``model``, ``stats``, cache knobs) delegates to the
    wrapped session, so a :class:`FaultySession` drops into a
    :class:`~repro.serving.registry.ModelRegistry` anywhere a real
    session goes.  ``calls`` and ``faults_injected`` expose what
    happened — note bisection makes sub-batch calls, which also count.
    """

    def __init__(
        self,
        inner,
        *,
        fail_calls: Iterable[int] = (),
        fail_every: int = 0,
        poison_plans: Iterable[PlanNode] = (),
        nan_plans: Iterable[PlanNode] = (),
        extra_latency_ms: float = 0.0,
        error: Optional[Callable[[], BaseException]] = None,
    ) -> None:
        self.inner = inner
        self.fail_calls = frozenset(fail_calls)
        self.fail_every = int(fail_every)
        self.poison_ids = frozenset(id(plan) for plan in poison_plans)
        self.nan_ids = frozenset(id(plan) for plan in nan_plans)
        self.extra_latency_ms = float(extra_latency_ms)
        self.error = error or (lambda: InjectedFault("injected fault"))
        self.calls = 0
        self.faults_injected = 0

    def _fault(self) -> BaseException:
        self.faults_injected += 1
        return self.error()

    def predict_batch(self, plans: Sequence[PlanNode]) -> list[float]:
        self.calls += 1
        if self.extra_latency_ms:
            time.sleep(self.extra_latency_ms / 1e3)
        if self.calls in self.fail_calls or (
            self.fail_every and self.calls % self.fail_every == 0
        ):
            raise self._fault()
        if self.poison_ids and any(id(plan) in self.poison_ids for plan in plans):
            raise self._fault()
        values = list(self.inner.predict_batch(plans))
        if self.nan_ids:
            values = [
                float("nan") if id(plan) in self.nan_ids else value
                for plan, value in zip(plans, values)
            ]
        return values

    def predict(self, plan: PlanNode) -> float:
        return self.predict_batch([plan])[0]

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return f"FaultySession({self.inner!r}, calls={self.calls}, faults={self.faults_injected})"


class LatencyDrift:
    """Deterministic synthetic drift: scale executed latencies by ``factor``.

    Wraps anything with the :class:`~repro.engine.simulator.Simulator`
    ``execute(root, rng)`` interface.  From the ``start_call``-th
    execution (1-based) onward, every executed plan's actuals are
    multiplied by ``factor`` — the returned root latency *and* the
    per-node annotations (``actual_total_ms`` and ``truth["self_ms"]``)
    the simulator wrote — so labels later harvested from these plans for
    fine-tuning are consistent with the drifted regime, exactly as if
    the underlying hardware had slowed down.

    Drives the lifecycle drills: serve a model trained on the undrifted
    simulator, flip traffic through a ``LatencyDrift(sim, factor=3)``,
    and the observed stream shifts deterministically — no randomness, so
    a failing drill replays identically.
    """

    def __init__(self, inner, factor: float, start_call: int = 1) -> None:
        if not factor > 0:
            raise ValueError("factor must be positive")
        if start_call < 1:
            raise ValueError("start_call must be >= 1 (1-based)")
        self.inner = inner
        self.factor = float(factor)
        self.start_call = int(start_call)
        self.calls = 0
        self.drifted = 0

    def execute(self, root: PlanNode, rng=None) -> float:
        self.calls += 1
        latency = self.inner.execute(root, rng)
        if self.calls < self.start_call:
            return latency
        self.drifted += 1
        for node in root.preorder():
            if node.actual_total_ms is not None:
                node.actual_total_ms *= self.factor
            if node.truth.get("self_ms") is not None:
                node.truth["self_ms"] *= self.factor
        return latency * self.factor

    def execute_many(self, roots: Sequence[PlanNode], rng=None) -> list[float]:
        # Routed through execute() so every plan gets the drift treatment
        # (delegating to the wrapped simulator's batch path would not).
        return [self.execute(root, rng) for root in roots]

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return (
            f"LatencyDrift({self.inner!r}, factor={self.factor}, "
            f"calls={self.calls}, drifted={self.drifted})"
        )
