"""Serving workloads: open-loop traffic, then a closed-loop burst phase.

``serve_templated`` sends 512 distinct TPC-H plans, drawn with a seeded
generator, at a fixed 4000 req/s.  The pool fits the session's
4096-entry feature cache, so after warm-up every request is a cache hit:
this is the path of structure resolve, identity digest, cache-hit
assembly, level-plan compile and the fused forward.

``serve_adhoc_observed`` sends 6000 distinct TPC-DS plans at 500 req/s
in a fixed cyclic order whose cursor never restarts.  The reuse distance
(6000) exceeds the 4096-entry LRU, so every lookup misses and the
feature programs run.  Every settled prediction is written back with
``Prediction.observe`` into a journaled ``OutcomeLog``, and a
``LifecycleManager`` is polled from the generator thread against a
``DriftMonitor`` that can never trip — the write-beside-read workload.

One generator thread (this one) drives each workload; with the
service's drain thread that is two threads.  The service runs with
library defaults.  Latency is timed from each request's *due* time, so
a stalled generator charges its stall to the requests it delayed.
"""

from __future__ import annotations

import bisect
import gc
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import repro.serving.service as service_module
from repro.core import LevelPlan, QPPNet, QPPNetConfig, Trainer
from repro.core.batching import plan_graph
from repro.evaluation import DriftMonitor, DriftThresholds
from repro.featurize import FeatureProgram, FeatureProgramCache, Featurizer
from repro.serving import (
    InferenceSession,
    LifecycleConfig,
    LifecycleManager,
    OutcomeJournal,
    OutcomeLog,
    Prediction,
    PredictionService,
)
from repro.workload import Workbench

import metrics
from outcome import Outcome, peak_rss_mb
from spans import Tracer

#: Extra set-ups between phases repeat for at least this long (once at
#: the least), so cheap set-ups contribute more samples to the median.
SETUP_SLOT_S = 0.5
#: Epochs the served model trains for in set-up, on the workload's pool.
SETUP_EPOCHS = 3
#: Plans per ``submit_many`` call in the warm-up and burst phases.
BURST_SIZE = 512
#: Share of a measuring window spent in open loop; the rest is burst.
OPEN_SHARE = 0.6
#: Open-loop latency percentiles are taken within each stretch of this
#: many seconds of schedule; ``latency_p50_ms`` is the good-side quartile
#: of the stretches' medians (``metrics.good_quartile``).
LATENCY_WINDOW_S = 2.0
#: Cadence of ``LifecycleManager.poll`` on the generator thread (the
#: library's own background-loop default).
POLL_INTERVAL_S = LifecycleConfig.poll_interval_s
#: Bound on any wait for a prediction to settle.
SETTLE_TIMEOUT_S = 60.0
#: A phase's backlog grew when its last request settles later than one
#: coalescing window plus this many median request latencies after the
#: schedule ends.
BACKLOG_SLACK_LATENCIES = 5
#: Served values must match the independent reference to this (relative).
REL_TOL = 1e-9
#: Drift thresholds no stream can reach, so nothing retrains mid-run.
NEVER_TRIP = DriftThresholds(
    error_ratio=1e12, min_observations=2**62, ph_threshold=1e12, unseen_rate=2.0
)
#: Offline relative error the monitor is armed with; with NEVER_TRIP it
#: only scales the (unused) trip ratio.
BASELINE_REL_ERROR = 0.5


@dataclass(frozen=True)
class ServingWorkload:
    name: str
    benchmark: str  # Workbench name
    n_plans: int
    rate: float  # open-loop requests per second
    cyclic: bool  # fixed cyclic order (else seeded draws with replacement)
    observed: bool  # write every settled prediction back


TEMPLATED = ServingWorkload("serve_templated", "tpch", 512, 2000.0, cyclic=False, observed=False)
ADHOC = ServingWorkload("serve_adhoc_observed", "tpcds", 6000, 500.0, cyclic=True, observed=True)


class Traffic:
    """Seeded sequence of pool indices (the program sees only plans)."""

    def __init__(self, workload: ServingWorkload, seed: int) -> None:
        self.n = workload.n_plans
        self.cyclic = workload.cyclic
        self.rng = np.random.default_rng([seed, 1])
        self.order = self.rng.permutation(self.n) if self.cyclic else None
        self.cursor = 0

    def take(self, k: int) -> np.ndarray:
        if not self.cyclic:
            return self.rng.integers(0, self.n, size=k)
        idx = self.order[(self.cursor + np.arange(k)) % self.n]
        self.cursor += k
        return idx


def generate_pool(workload: ServingWorkload, seed: int):
    """``n_plans`` plans with distinct feature-cache identities.

    The seed draws query parameters; the database itself is fixed, so
    every seed yields the same kind of traffic.  Some parameter draws
    repeat a plan exactly, so a margin is generated and repeats dropped.
    """
    bench = Workbench(workload.benchmark, scale_factor=0.2, seed=0)
    samples = bench.generate(
        workload.n_plans + workload.n_plans // 10, rng=np.random.default_rng([seed, 0])
    )
    # Identities read raw property values only, so a featurizer fitted
    # on a slice of the pool computes the same digests as one fitted on
    # all of it.
    programs = Featurizer().fit([s.plan for s in samples[:500]]).compiled()
    pool, seen = [], set()
    for sample in samples:
        key = programs.digest(plan_graph(sample.plan), list(sample.plan.preorder()))
        if key not in seen:
            seen.add(key)
            pool.append(sample)
    if len(pool) < workload.n_plans:
        raise RuntimeError(f"only {len(pool)} distinct plans generated for {workload.name}")
    return pool[: workload.n_plans]


@dataclass
class Stack:
    """The system under test, built in set-up."""

    model: QPPNet
    session: InferenceSession
    service: PredictionService
    state_dir: Path
    journal: Optional[OutcomeJournal] = None
    monitor: Optional[DriftMonitor] = None
    manager: Optional[LifecycleManager] = None
    observed: int = 0

    def close(self) -> None:
        self.service.stop(drain=True, timeout=SETTLE_TIMEOUT_S)
        if self.journal is not None:
            self.journal.close()


def build_stack(workload: ServingWorkload, samples, state_dir: Path) -> Stack:
    featurizer = Featurizer().fit([s.plan for s in samples])
    model = QPPNet(featurizer, QPPNetConfig())
    Trainer(model).fit(samples, epochs=SETUP_EPOCHS)
    session = InferenceSession(model)
    if not workload.observed:
        return Stack(model, session, PredictionService(session).start(), state_dir)
    journal = OutcomeJournal(state_dir / "journal")
    service = PredictionService(session, outcomes=OutcomeLog(journal=journal))
    monitor = DriftMonitor(
        BASELINE_REL_ERROR,
        thresholds=NEVER_TRIP,
        known_signatures={s.plan.structure_signature() for s in samples},
    )
    manager = LifecycleManager(
        service, monitor, LifecycleConfig(checkpoint_dir=state_dir / "checkpoints")
    )
    return Stack(model, session, service.start(), state_dir, journal, monitor, manager)


def warm_up(stack: Stack, plans, traffic: Traffic) -> None:
    """One burst through the service, compiling programs and layouts and
    starting every lazy structure: the whole pool when it is drawn from
    at random (filling the feature cache), else the cycle's first
    BURST_SIZE plans (the cursor moves on, so none of them is reused
    before the LRU has evicted it)."""
    warm = traffic.take(BURST_SIZE) if traffic.cyclic else range(len(plans))
    for pred in stack.service.submit_many([plans[i] for i in warm]):
        pred.result(SETTLE_TIMEOUT_S)


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one phase sent and how it settled.  Settled handles are
    reduced to numbers at once, so the benchmark's own bookkeeping does
    not grow the heap every garbage collection walks."""

    name: str
    attempted: int = 0
    start: float = 0.0
    end: float = 0.0  # last settle
    closed: float = 0.0  # the phase's own work (write-back, polls) done
    served_idx: list = field(default_factory=list)  # pool index chunks
    served_val: list = field(default_factory=list)  # served value chunks
    observe_us: list = field(default_factory=list)
    # Open loop, per request: due, send, admission and settle instants.
    dues: np.ndarray = field(default_factory=lambda: np.empty(0))
    sends: np.ndarray = field(default_factory=lambda: np.empty(0))
    submitted: np.ndarray = field(default_factory=lambda: np.empty(0))
    settled: np.ndarray = field(default_factory=lambda: np.empty(0))
    chunk_rates: list = field(default_factory=list)
    accounting: dict = field(default_factory=dict)
    backlog_grew: bool = False

    @property
    def latency_ms(self) -> list:
        """Due-time latency of every open-loop request."""
        service_ms = (self.settled - self.submitted) * 1e3
        return list(metrics.due_time_latency_ms(self.dues, self.submitted, service_ms))

    @property
    def late_ms(self) -> list:
        return list((self.sends - self.dues) * 1e3)

    def summary(self) -> dict:
        out = {
            "attempted": self.attempted,
            "wall_s": self.end - self.start,
            **self.accounting,
        }
        if len(self.dues):
            latency = self.latency_ms
            out["latency_ms_p50"] = metrics.percentile(latency, "50")
            out["latency_ms_tail"] = metrics.tail(latency, "99")
            out["gen.late_ms_tail"] = metrics.tail(self.late_ms, "99")
            out["backlog_grew"] = self.backlog_grew
        if self.chunk_rates:
            out["capacity_rps"] = {
                "bursts": len(self.chunk_rates),
                "p50": metrics.percentile(self.chunk_rates, "50"),
                "p75": metrics.percentile(self.chunk_rates, "75"),
            }
        if self.observe_us:
            out["observe_us_p50"] = metrics.percentile(self.observe_us, "50")
            out["observe_us_tail"] = metrics.tail(self.observe_us, "99")
        return out


def _account(phase: Phase, before, after) -> None:
    """Requests the phase's ``ServiceStats`` counters moved."""
    phase.accounting = {
        "submitted": after.submitted - before.submitted,
        "succeeded": after.completed - before.completed,
        "failed": after.failed - before.failed,
        "rejected": after.rejected - before.rejected,
    }


def _observe(stack: Stack, phase: Phase, pred: Prediction, actual_ms: float, tracer, request) -> None:
    if tracer is not None:
        tracer.request = request
    start = time.monotonic()
    pred.observe(actual_ms)
    phase.observe_us.append((time.monotonic() - start) * 1e6)
    stack.observed += 1
    if tracer is not None:
        tracer.request = None


def open_loop(
    stack: Stack,
    workload: ServingWorkload,
    samples,
    traffic: Traffic,
    duration: float,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Send ``rate * duration`` requests on a fixed schedule, whatever the
    service's state; harvest (and, for the observed workload, observe)
    settled requests and poll the lifecycle in the gaps."""
    service = stack.service
    rate = workload.rate
    n = max(1, round(rate * duration))
    indices = traffic.take(n)
    phase = Phase("open_loop", attempted=n)
    phase.sends, phase.submitted, phase.settled = np.empty(n), np.empty(n), np.empty(n)
    values = np.empty(n)
    before = service.stats()
    pending: deque = deque()
    observed = workload.observed

    def harvest(i: int, pred: Prediction) -> None:
        values[i] = pred.result()
        phase.submitted[i] = pred.submitted_at
        phase.settled[i] = pred.submitted_at + pred.latency_ms / 1e3
        if observed:
            _observe(stack, phase, pred, samples[indices[i]].latency_ms, tracer, i)

    gc.collect()
    phase.start = time.monotonic() + 0.002
    phase.dues = phase.start + np.arange(n) / rate
    next_poll = phase.start + POLL_INTERVAL_S
    for i in range(n):
        while pending and pending[0][1].done():
            harvest(*pending.popleft())
        if observed and time.monotonic() >= next_poll:
            stack.manager.poll()
            next_poll += POLL_INTERVAL_S
        delay = phase.dues[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if tracer is not None:
            tracer.request = i
        phase.sends[i] = time.monotonic()
        pending.append((i, service.submit(samples[indices[i]].plan)))
    for i, pred in pending:
        pred.result(SETTLE_TIMEOUT_S)
        harvest(i, pred)
    if observed:
        stack.manager.poll()
    phase.closed = time.monotonic()
    phase.end = float(phase.settled.max())
    phase.served_idx.append(indices)
    phase.served_val.append(values)
    slack_ms = service.max_wait_ms + BACKLOG_SLACK_LATENCIES * metrics.percentile(
        phase.latency_ms, "50"
    )
    schedule_end = phase.start + n / rate
    phase.backlog_grew = (phase.end - schedule_end) * 1e3 > slack_ms
    _account(phase, before, service.stats())
    return phase


def burst(
    stack: Stack,
    workload: ServingWorkload,
    samples,
    traffic: Traffic,
    duration: float,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Closed loop: ``submit_many`` of BURST_SIZE plans, wait for all,
    repeat.  Capacity counts only submit-to-last-settle time; the
    write-back of the observed workload happens between calls."""
    service = stack.service
    phase = Phase("burst")
    before = service.stats()
    gc.collect()
    phase.start = time.monotonic()
    while True:
        indices = traffic.take(BURST_SIZE)
        start = time.monotonic()
        preds = service.submit_many([samples[i].plan for i in indices])
        values = np.array([p.result(SETTLE_TIMEOUT_S) for p in preds])
        last = max(p.submitted_at + p.latency_ms / 1e3 for p in preds)
        phase.chunk_rates.append(len(preds) / (last - start))
        phase.attempted += len(preds)
        phase.served_idx.append(indices)
        phase.served_val.append(values)
        if workload.observed:
            for i, pred in zip(indices, preds):
                _observe(stack, phase, pred, samples[i].latency_ms, tracer, None)
            stack.manager.poll()
        if time.monotonic() - phase.start >= duration:
            break
    phase.end = phase.closed = time.monotonic()
    _account(phase, before, service.stats())
    return phase


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _n_plans(args, kwargs) -> int:
    return len(args[1])


def install_serving_spans(tracer: Tracer) -> None:
    """Span every public call on the serving path (module attributes and
    class methods, so every instance is covered)."""
    tracer.wrap(service_module, "validate_plan", "plans.validate")
    tracer.wrap(PredictionService, "submit_many", "service.submit", _n_plans)
    tracer.wrap(InferenceSession, "predict_batch", "session.predict_batch", _n_plans)
    tracer.wrap(FeatureProgramCache, "digests", "featurize.digests", lambda a, k: len(a[2]))
    tracer.wrap(FeatureProgram, "run", "featurize.program", _n_plans)
    tracer.wrap(QPPNet, "compile_level_plan", "levels.compile")
    tracer.wrap(LevelPlan, "forward_inference", "levels.forward_inference")
    tracer.wrap(Prediction, "observe", "outcome.observe")
    tracer.wrap(OutcomeJournal, "append", "journal.append")
    tracer.wrap(DriftMonitor, "observe", "drift.observe")
    tracer.wrap(LifecycleManager, "poll", "lifecycle.poll")


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def serving_layers(tracer: Tracer, phase: Phase, counters: dict, journal_bytes: Optional[float]) -> dict:
    """Per-layer metrics of one traced open-loop phase."""
    spans = [s for s in tracer.spans if phase.start <= s.start and s.end <= phase.closed]
    names: dict[str, list] = {}
    for span in spans:
        names.setdefault(span.name, []).append(span)
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in names.get(name, ()))

    def mean_per_call(name: str, scale: float) -> float:
        return _mean(total(name) * scale, len(names.get(name, ())))

    def pct(values: list, p: str) -> float:
        return metrics.percentile(values, p) if values else 0.0

    batches = sorted(names.get("session.predict_batch", []), key=lambda s: s.end)
    plans = sum(s.n for s in batches)
    batch_self = sum(
        metrics.self_time(b.start, b.end, [(c.start, c.end) for c in children.get(b.id, ())])
        for b in batches
    )
    # Per request: which batch served it (the last one to return before
    # the request settled — the drain thread runs batches one at a time).
    ends = [b.end for b in batches]
    submit_by_request = {s.request: s for s in names.get("service.submit", [])}
    queue_ms, settle_us, e2e, stages = [], [], 0.0, 0.0
    for i, (due, send, submitted, settled) in enumerate(
        zip(phase.dues, phase.sends, phase.submitted, phase.settled)
    ):
        b = batches[bisect.bisect_right(ends, settled) - 1]
        queue = b.start - submitted
        settle = settled - b.end
        queue_ms.append(queue * 1e3)
        settle_us.append(settle * 1e6)
        submit = submit_by_request[i]
        e2e += settled - due
        stages += (send - due) + submit.duration + queue + b.duration + settle
        # The stages no wrapper sees, kept with the spans so the dump
        # answers where each request's time went.
        tracer.record("gen.late", due, send, i)
        tracer.record("service.queue_wait", submitted, b.start, i)
        tracer.record("service.settle", b.end, settled, i)
    observes = names.get("outcome.observe", [])
    observe_self = sum(
        metrics.self_time(o.start, o.end, [(c.start, c.end) for c in children.get(o.id, ())])
        for o in observes
    )
    appends_us = [s.duration * 1e6 for s in names.get("journal.append", [])]
    submitted_plans = sum(s.n for s in names.get("service.submit", []))
    return {
        "plans.validate_us": mean_per_call("plans.validate", 1e6),
        "service.submit_us": _mean(total("service.submit") * 1e6, submitted_plans),
        "service.queue_wait_ms_p50": metrics.percentile(queue_ms, "50"),
        "service.queue_wait_ms_p99": metrics.percentile(queue_ms, "99"),
        "service.batch_size_mean": _mean(plans, len(batches)),
        "service.settle_us": _mean(sum(settle_us), len(settle_us)),
        "service.drain_busy_frac": total("session.predict_batch") / (phase.end - phase.start),
        "session.self_us_per_plan": _mean(batch_self * 1e6, plans),
        "featurize.digest_us_per_plan": _mean(total("featurize.digests") * 1e6, plans),
        "featurize.cache_hit_ratio": counters["feature_cache_hit_ratio"],
        "featurize.program_us_per_plan": _mean(total("featurize.program") * 1e6, plans),
        "levels.compile_ms_per_batch": _mean(total("levels.compile") * 1e3, len(batches)),
        "levels.plan_cache_hit_ratio": counters["level_plan_hit_ratio"],
        "levels.plans_compiled": counters["level_plans_compiled"],
        "levels.forward_us_per_plan": _mean(total("levels.forward_inference") * 1e6, plans),
        "outcome.observe_us_p50": pct(phase.observe_us, "50"),
        "outcome.observe_us_p99": pct(phase.observe_us, "99"),
        "outcome.observe_self_us": _mean(observe_self * 1e6, len(observes)),
        "journal.append_us_p50": pct(appends_us, "50"),
        "journal.append_us_p99": pct(appends_us, "99"),
        "journal.bytes_per_record": journal_bytes or 0.0,
        "drift.observe_us": mean_per_call("drift.observe", 1e6),
        "lifecycle.poll_ms": mean_per_call("lifecycle.poll", 1e3),
        "gen.late_ms_p99": metrics.percentile(phase.late_ms, "99"),
        "trace.coverage": stages / e2e,
    }


def _cache_counters(stack: Stack) -> dict:
    cache = stack.session.feature_cache
    plans = stack.model.level_plans
    return {"fc_hits": cache.hits, "fc_misses": cache.misses, "lp_hits": plans.hits, "lp_misses": plans.misses}


def _counter_deltas(before: dict, after: dict) -> dict:
    d = {key: after[key] - before[key] for key in before}
    return {
        "feature_cache_hit_ratio": _mean(d["fc_hits"], d["fc_hits"] + d["fc_misses"]),
        "level_plan_hit_ratio": _mean(d["lp_hits"], d["lp_hits"] + d["lp_misses"]),
        "level_plans_compiled": float(d["lp_misses"]),
    }


# ----------------------------------------------------------------------
# The workload run
# ----------------------------------------------------------------------
def run(
    workload: ServingWorkload, seed: int, seconds: float, trace: bool, scratch: Path, out_dir: Path
) -> Outcome:
    out = Outcome()
    t = time.monotonic()
    samples = generate_pool(workload, seed)
    out.report["plan_generation_s"] = time.monotonic() - t
    out.report["pool"] = {
        "plans": len(samples),
        "structures": len({s.plan.structure_signature() for s in samples}),
    }
    plans = [s.plan for s in samples]
    # The pool is the load generator's, resident only because the
    # generator lives in this process: keep it out of every garbage
    # collection so full collections cost what the system's heap costs.
    gc.collect()
    gc.freeze()

    setup_times: list[float] = []

    def set_up(k: int) -> tuple[Stack, Traffic]:
        gc.collect()
        start = time.monotonic()
        stack = build_stack(workload, samples, scratch / f"setup-{k}")
        traffic = Traffic(workload, seed)
        warm_up(stack, plans, traffic)
        setup_times.append(time.monotonic() - start)
        return stack, traffic

    def extra_set_ups(slot: int) -> None:
        """More timed set-ups, between phases, so the median of
        ``setup_s`` samples more than one moment of a noisy host."""
        if trace:
            return
        start = time.monotonic()
        while True:
            extra, _ = set_up(len(setup_times))
            extra.close()
            shutil.rmtree(extra.state_dir, ignore_errors=True)
            if time.monotonic() - start >= SETUP_SLOT_S:
                return

    stack, traffic = set_up(0)
    phases: list[Phase] = []
    try:
        window = seconds / 2 if trace else seconds
        phases.append(open_loop(stack, workload, samples, traffic, OPEN_SHARE * window))
        extra_set_ups(1)
        phases.append(burst(stack, workload, samples, traffic, (1 - OPEN_SHARE) * window))
        extra_set_ups(2)
        if trace:
            tracer = Tracer()
            before = _cache_counters(stack)
            with tracer:
                install_serving_spans(tracer)
                traced_open = open_loop(stack, workload, samples, traffic, OPEN_SHARE * window, tracer)
                counters = _counter_deltas(before, _cache_counters(stack))
                traced_burst = burst(stack, workload, samples, traffic, (1 - OPEN_SHARE) * window, tracer)
            phases += [traced_open, traced_burst]
    finally:
        stack.close()
    # Before the output checks: replaying the journal alone can double it.
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.report["setup_s_each"] = setup_times

    out.report["phases"] = {f"{i}:{p.name}": p.summary() for i, p in enumerate(phases)}
    out.attempted = sum(p.attempted for p in phases)
    out.failed = sum(p.accounting["failed"] + p.accounting["rejected"] for p in phases)
    out.check("all_requests_settled", out.failed == 0 and all(
        p.accounting["succeeded"] == p.attempted for p in phases
    ))

    # Independent reference: a fresh session over the same model.
    reference_session = InferenceSession(stack.model)
    reference = np.concatenate([
        reference_session.predict_batch(plans[i : i + BURST_SIZE])
        for i in range(0, len(plans), BURST_SIZE)
    ])
    idx = np.concatenate([chunk for p in phases for chunk in p.served_idx])
    val = np.concatenate([chunk for p in phases for chunk in p.served_val])
    worst = float(np.max(np.abs(val - reference[idx]) / np.maximum(1.0, np.abs(reference[idx]))))
    out.check("predictions_match_reference", worst <= REL_TOL, {"worst_rel_diff": worst})

    journal_bytes = None
    if workload.observed:
        replay = OutcomeJournal(stack.journal.directory).recover()
        out.check("journal_recovers_clean", replay.clean)
        out.check(
            "journal_holds_every_observation",
            len(replay.records) == stack.observed,
            {"records": len(replay.records), "observed": stack.observed},
        )
        observations = stack.monitor.report().observations
        out.check("drift_monitor_saw_every_observation", observations == stack.observed,
                  {"monitor": observations, "observed": stack.observed})
        out.check("lifecycle_still_live", stack.manager.state == "live", stack.manager.state)
        journal_bytes = sum(p.stat().st_size for p in stack.journal.segments()) / max(
            1, stack.journal.appended
        )
        out.report["journal_bytes_per_record"] = journal_bytes

    if not trace:
        open_phase, burst_phase = phases
        out.metrics["setup_s"] = float(np.median(setup_times))
        window = round(LATENCY_WINDOW_S * workload.rate)
        for p in ("50", "99"):
            per_window = metrics.window_percentiles(open_phase.latency_ms, window, p)
            out.report[f"latency_ms_p{p}_windows"] = {"window": window, "values": per_window}
        out.metrics["latency_p50_ms"] = metrics.good_quartile(
            out.report["latency_ms_p50_windows"]["values"], "lower"
        )
        out.report["throughput_per_s"] = metrics.good_quartile(burst_phase.chunk_rates, "higher")
        return out

    untraced_burst, traced_burst = phases[1], phases[3]
    layers = serving_layers(tracer, traced_open, counters, journal_bytes)
    layers["trace.overhead_frac"] = (
        metrics.percentile(untraced_burst.chunk_rates, "50")
        / metrics.percentile(traced_burst.chunk_rates, "50")
        - 1.0
    )
    out.metrics.update(layers)
    out.check("trace_coverage_within_10pct", abs(layers["trace.coverage"] - 1.0) <= 0.10,
              layers["trace.coverage"])
    tracer.dump(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    return out
