"""Crash-point harness: every prefix of four lifecycle cycles, recovered.

Each scenario runs a whole cycle from ``ServiceRecovery.create`` while
recording every disk operation :mod:`repro.core.durable` makes.  For
every prefix of that trace the harness rebuilds the state directory as
a process death and as a power loss would leave it, runs
``ServiceRecovery.recover`` on the rebuilt directory, and checks what
recovery rebuilt.  This is the method of ALICE (Pillai et al., "All File
Systems Are Not Created Equal", OSDI 2014), run in process over a
recorded trace, so it needs no mount, block device or kernel setting.

The two crash models:

* *process death*: every recorded operation is kept;
* *power loss*: a file keeps only the bytes it had at its last fsync,
  and a create, rename or unlink survives only if its directory was
  fsynced after it.

At every crash point, under both models:

* ``recover`` returns, or raises only ``RecoveryError``, and only while
  no manifest is durable;
* every bundle the recovered manifest names loads, bitwise equal to the
  model the run saved at that path;
* the recovered ``manager.cycle`` never decreases from one crash point
  to the next;
* the replay holds exactly the durable journal records (those appended
  under process death; those appended before an fsync of their segment
  under power loss), with no corrupt record or segment and no torn
  tail, and ``manager.cursor <= report.max_seq``;
* the recovered drift monitor equals the uninterrupted run's monitor
  fed the same durable outcomes, counting each reset at promote or
  demote whose manifest, or a later drift snapshot, is durable.

Crash points whose rebuilt directories are byte-identical share one
``recover`` run; no crash point is skipped.
"""

import json
import os
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from repro.core import QPPNet, QPPNetConfig, Trainer, durable
from repro.evaluation.drift import DriftMonitor, DriftThresholds
from repro.featurize import Featurizer
from repro.serving import LifecycleManager, LifecycleState, RecoveryError, ServiceRecovery
from repro.serving import lifecycle, recovery
from repro.serving.lifecycle import DRIFT_SNAPSHOT_NAME, MANIFEST_NAME
from repro.testing import LatencyDrift, SimulatedCrash, kill_at_epoch
from repro.workload import Workbench

pytestmark = [pytest.mark.chaos, pytest.mark.lifecycle]

#: Small enough that a drift snapshot lands inside every cycle, with
#: ``fsync_every > 1`` so a power loss can lose journal records, and
#: segments of about three records so the journal rotates.
JOURNAL = dict(fsync_every=3, segment_max_bytes=10_000)
LIFECYCLE = dict(
    min_retrain_outcomes=8,
    fine_tune_epochs=2,
    shadow_min_outcomes=4,
    stabilize_outcomes=4,
    drift_snapshot_every=4,
)
THRESHOLDS = DriftThresholds(error_ratio=1.4, ewma_alpha=0.1, min_observations=32)
PROCESS_DEATH, POWER_LOSS = "process death", "power loss"
STATE = "state"  # the state directory, relative to the recorded base


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", scale_factor=0.2, seed=0).generate(
        64, rng=np.random.default_rng(3)
    )


@pytest.fixture(scope="module")
def model(corpus):
    featurizer = Featurizer().fit([s.plan for s in corpus])
    config = QPPNetConfig(
        hidden_layers=1, neurons=8, data_size=4, epochs=5, batch_size=32, seed=1
    )
    net = QPPNet(featurizer, config)
    Trainer(net, config).fit(corpus)
    return net


@pytest.fixture(scope="module")
def drifted():
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    wb.simulator = LatencyDrift(wb.simulator, factor=3.0)
    return wb.generate(16, rng=np.random.default_rng(9))


@pytest.fixture(scope="module")
def known(corpus):
    return frozenset(s.plan.structure_signature() for s in corpus)


# ----------------------------------------------------------------------
# Recording the live run
# ----------------------------------------------------------------------
@dataclass
class Trace:
    """Disk operations (paths relative to the recorded base) and the
    drift monitor's events, each event stamped with the number of
    operations recorded before it."""

    base: Path
    ops: list = field(default_factory=list)
    events: list = field(default_factory=list)
    #: bundle path (relative to the state directory) -> parameters of
    #: every model the run saved there.
    bundles: dict = field(default_factory=dict)
    #: ``(first op, end op, kind, path, contents)`` of every publish and
    #: remove call: once one returned, its effect must survive a crash.
    calls: list = field(default_factory=list)
    manager: object = None

    def rel(self, path) -> str:
        rel = os.path.relpath(os.path.abspath(path), self.base)
        assert not rel.startswith(".."), f"write outside the state directory: {path}"
        return rel

    def event(self, *event) -> None:
        self.events.append((len(self.ops),) + event)


def record(monkeypatch, trace: Trace) -> None:
    """Substitute every durable primitive (and spy on the monitor)."""

    def recorded(name, describe):
        real = getattr(durable, name)

        def wrapper(*args):
            result = real(*args)
            trace.ops.append((name,) + describe(*args))
            return result

        monkeypatch.setattr(durable, name, wrapper)

    recorded("write", lambda path, data: (trace.rel(path), bytes(data)))
    recorded("append", lambda handle, data: (trace.rel(handle.name), bytes(data)))
    recorded("fsync", lambda handle: (trace.rel(handle.name),))
    recorded("rename", lambda src, dst: (trace.rel(src), trace.rel(dst)))
    recorded("truncate", lambda path, size: (trace.rel(path), size))
    for name in ("fsync_dir", "unlink", "mkdir", "rmdir"):
        recorded(name, lambda path: (trace.rel(path),))

    def promised(name):
        real = getattr(durable, name)

        def wrapper(path, *contents):
            first = len(trace.ops)
            result = real(path, *contents)
            body = {k: bytes(v) for k, v in contents[0].items()} if name == "publish_dir" else (
                bytes(contents[0]) if contents else None
            )
            trace.calls.append((first, len(trace.ops), name, trace.rel(path), body))
            return result

        monkeypatch.setattr(durable, name, wrapper)

    for name in ("publish", "publish_dir", "remove"):
        promised(name)

    def save_bundle(real):
        def wrapper(model, directory):
            state = {key: value.copy() for key, value in model.state_dict().items()}
            rel = os.path.relpath(trace.rel(directory), STATE)
            trace.bundles.setdefault(rel, []).append(state)
            return real(model, directory)

        return wrapper

    for module in (lifecycle, recovery):
        monkeypatch.setattr(module, "save_bundle", save_bundle(module.save_bundle))

    real_poll = LifecycleManager.poll
    real_restore = LifecycleManager.restore_progress
    real_observe = DriftMonitor.observe
    real_reset = DriftMonitor.reset

    def poll(self):
        trace.manager = self
        return real_poll(self)

    def restore_progress(self, **kwargs):
        # A restarted process resumes from the snapshot at this cursor:
        # what the dead one observed past it is gone.
        trace.event("restart", kwargs["cursor"])
        return real_restore(self, **kwargs)

    def observe(self, *args, **kwargs):
        trace.event("observe", trace.manager._cursor)
        return real_observe(self, *args, **kwargs)

    def reset(self, **kwargs):
        trace.event("reset", kwargs)
        return real_reset(self, **kwargs)

    monkeypatch.setattr(LifecycleManager, "poll", poll)
    monkeypatch.setattr(LifecycleManager, "restore_progress", restore_progress)
    monkeypatch.setattr(DriftMonitor, "observe", observe)
    monkeypatch.setattr(DriftMonitor, "reset", reset)


def serve_and_observe(service, samples):
    for s in samples:
        handle = service.submit(s.plan)
        handle.result(timeout=30)
        handle.observe(s.latency_ms)


def create(state_dir, model, known, **overrides):
    return ServiceRecovery.create(
        state_dir,
        model,
        baseline_rel_error=0.2,
        thresholds=THRESHOLDS,
        known_signatures=known,
        **JOURNAL,
        **{**LIFECYCLE, **overrides},
    )


def promote_then_stabilize(state_dir, model, known, drifted):
    stack = create(state_dir, model, known)
    manager = stack.manager
    with stack.service:
        serve_and_observe(stack.service, drifted[:8])
        manager.poll()
        manager.retrain()
        manager.deploy_shadow()
        serve_and_observe(stack.service, drifted[8:12])
        manager.poll()
        manager.promote(force=True)
        serve_and_observe(stack.service, drifted[12:16])
        manager.step()
    assert manager.state == LifecycleState.LIVE and manager.cycle == 1
    return [stack]


def shadow_reject(state_dir, model, known, drifted):
    stack = create(state_dir, model, known)
    manager = stack.manager
    with stack.service:
        serve_and_observe(stack.service, drifted[:8])
        manager.poll()
        manager.retrain()
        manager.deploy_shadow()
        serve_and_observe(stack.service, drifted[8:12])
        manager.poll()
        manager.demote()
    return [stack]


def promote_then_roll_back(state_dir, model, known, drifted):
    stack = create(state_dir, model, known)
    manager = stack.manager
    with stack.service:
        serve_and_observe(stack.service, drifted[:8])
        manager.poll()
        manager.retrain()
        manager.deploy_shadow()
        manager.promote(force=True)
        serve_and_observe(stack.service, drifted[8:12])
        manager.poll()
        manager.demote()
    return [stack]


def killed_retrain_resumed(state_dir, model, known, drifted):
    stack = create(state_dir, model, known, epoch_hook=kill_at_epoch(1))
    with stack.service:
        serve_and_observe(stack.service, drifted[:8])
        stack.manager.poll()
        with pytest.raises(SimulatedCrash):
            stack.manager.retrain()
    # The dead process writes nothing more; a new one recovers.
    recovered = ServiceRecovery.recover(state_dir, **JOURNAL)
    manager = recovered.manager
    assert manager.state == LifecycleState.RETRAINING
    with recovered.service:
        manager.retrain()
        manager.deploy_shadow()
        serve_and_observe(recovered.service, drifted[8:12])
        manager.poll()
        manager.promote(force=True)
    return [stack, recovered]


SCENARIOS = {
    "promote-stabilize": promote_then_stabilize,
    "shadow-reject": shadow_reject,
    "promote-rollback": promote_then_roll_back,
    "kill-resume-promote": killed_retrain_resumed,
}


# ----------------------------------------------------------------------
# The two crash models over one trace
# ----------------------------------------------------------------------
_FRAME = struct.Struct("<II")


class Disk:
    """Inodes and directory entries after a prefix of a trace: the live
    (page-cache) view a process death leaves, and the durable view a
    power loss leaves.  Also tracks which journal records are durable."""

    def __init__(self) -> None:
        self.entries = {0: {}}  # directory inode -> {name: inode}; 0 is the base
        self.synced_entries = {0: {}}  # ... as of the directory's last fsync
        self.data = {}  # file inode -> bytes
        self.synced_data = {}  # ... as of the file's last fsync
        self.pending = {}  # file inode -> seqs appended since its last fsync
        self.appended = set()
        self.synced = set()
        self._next = 1

    def _lookup(self, path: str):
        if path == ".":
            return None, None, 0
        *dirs, name = Path(path).parts
        parent = 0
        for part in dirs:
            parent = self.entries[parent][part]
        return parent, name, self.entries[parent].get(name)

    def _new(self) -> int:
        self._next += 1
        return self._next

    def apply(self, op) -> None:
        kind, path, *rest = op
        parent, name, inode = self._lookup(path)
        if kind == "mkdir":
            inode = self.entries[parent][name] = self._new()
            self.entries[inode], self.synced_entries[inode] = {}, {}
        elif kind == "write":
            if inode is None:
                inode = self.entries[parent][name] = self._new()
                self.synced_data[inode] = b""
            self.data[inode] = rest[0]
            self.pending[inode] = []
        elif kind == "append":
            self.data[inode] += rest[0]
            length, _ = _FRAME.unpack_from(rest[0])
            seq = json.loads(rest[0][_FRAME.size : _FRAME.size + length])["seq"]
            self.appended.add(seq)
            self.pending[inode].append(seq)
        elif kind == "fsync":
            self.synced_data[inode] = self.data[inode]
            self.synced.update(self.pending[inode])
            self.pending[inode] = []
        elif kind == "fsync_dir":
            self.synced_entries[inode] = dict(self.entries[inode])
        elif kind == "rename":
            target_parent, target_name, _ = self._lookup(rest[0])
            del self.entries[parent][name]
            self.entries[target_parent][target_name] = inode
        elif kind in ("unlink", "rmdir"):
            del self.entries[parent][name]
        elif kind == "truncate":
            self.data[inode] = self.data[inode][: rest[0]].ljust(rest[0], b"\0")
        else:
            raise AssertionError(f"unknown operation {kind!r}")

    def view(self, model: str) -> tuple:
        """The directory tree as ``((path, bytes or None for a dir), ...)``."""
        entries, data = (
            (self.entries, self.data)
            if model == PROCESS_DEATH
            else (self.synced_entries, self.synced_data)
        )
        tree, stack = [], [(0, "")]
        while stack:
            inode, prefix = stack.pop()
            for name, child in entries[inode].items():
                path = f"{prefix}{name}"
                if child in entries:
                    tree.append((path, None))
                    stack.append((child, path + "/"))
                else:
                    tree.append((path, data[child]))
        return tuple(sorted(tree))

    def durable_records(self, model: str) -> set:
        return self.appended if model == PROCESS_DEATH else self.synced


def payload(tree: dict, name: str):
    """The published payload of ``state/<name>`` in a rebuilt tree."""
    raw = tree.get(f"{STATE}/{name}")
    return None if raw is None else json.loads(raw)["payload"]


# ----------------------------------------------------------------------
# Recovery of one rebuilt directory
# ----------------------------------------------------------------------
@dataclass
class Recovered:
    error: BaseException = None
    cycle: int = 0
    cursor: int = 0
    max_seq: int = 0
    seqs: tuple = ()
    damage: tuple = ()
    monitor: dict = None
    models: dict = None


def recover(tree: tuple, where: Path) -> Recovered:
    for path, content in tree:
        if content is None:
            (where / path).mkdir()
        else:
            (where / path).write_bytes(content)
    try:
        stack = ServiceRecovery.recover(where / STATE, **JOURNAL)
    except Exception as error:  # checked by the caller: RecoveryError only
        return Recovered(error=error)
    report = stack.report
    result = Recovered(
        cycle=stack.manager.cycle,
        cursor=stack.manager.cursor,
        max_seq=report.max_seq,
        seqs=tuple(rec.seq for rec in stack.service.outcomes.snapshot()),
        damage=(report.corrupt_records, report.corrupt_segments, report.torn_tail_bytes),
        monitor=stack.monitor.state_dict(),
        models={
            name: stack.service.registry.model(name).state_dict()
            for name in stack.service.registry.names()
        },
    )
    stack.journal.close()
    return result


def check_promises(calls, k, files, where):
    """Whatever a returned publish wrote is on disk at crash point ``k``:
    its contents, or those of a publish to the same path still in flight."""
    for path in {call[3] for call in calls if call[2] != "remove"}:
        mine = [c for c in calls if c[3] == path and c[2] != "remove"]
        done = [c for c in mine if c[1] <= k]
        if not done:
            continue
        last = done[-1]
        if any(
            c[2] == "remove" and c[0] < k and (path + "/").startswith(c[3] + "/")
            and c[0] >= last[1]
            for c in calls
        ):
            continue  # removed (or being removed) since
        allowed = [last[4]] + [c[4] for c in mine if last[1] <= c[0] < k]
        if last[2] == "publish":
            found = files.get(path)
        else:
            found = {
                p[len(path) + 1 :]: b for p, b in files.items()
                if os.path.dirname(p) == path and b is not None
            } if path in files else None
        assert found in allowed, (where, f"{path} lost what a returned {last[2]} wrote")


def reference_monitor(trace, records, durable_seqs, reset_counts, known):
    """The uninterrupted run's monitor fed exactly ``durable_seqs``,
    with the resets ``reset_counts(position)`` says are durable."""
    monitor = DriftMonitor(0.2, thresholds=THRESHOLDS, known_signatures=known)
    void, fed = set(), set()
    for i, (pos, kind, arg) in enumerate(trace.events):
        if kind == "restart" and reset_counts.restarted(pos):
            void.update(
                j for j, (_, k, seq) in enumerate(trace.events[:i])
                if k == "observe" and seq > arg
            )
    for i, (pos, kind, arg) in enumerate(trace.events):
        if kind == "observe" and i not in void and arg in durable_seqs and arg not in fed:
            fed.add(arg)
            monitor.observe(*records[arg])
        elif kind == "reset" and reset_counts(pos):
            monitor.reset(**arg)
    for seq in sorted(durable_seqs - fed):
        monitor.observe(*records[seq])
    return monitor


@dataclass
class ResetRule:
    """A reset counts when its transition's manifest, or a drift
    snapshot published after it, is durable at the crash point."""

    k: int
    manifests: list  # (position of the publishing rename, payload)
    snapshots: list
    manifest: object
    snapshot: object

    @staticmethod
    def _durable(published, current, k):
        hits = [pos for pos, body in published if pos < k and body == current]
        return hits[-1] if current is not None and hits else -1

    def __call__(self, pos: int) -> bool:
        manifest_at = self._durable(self.manifests, self.manifest, self.k)
        snapshot_at = self._durable(self.snapshots, self.snapshot, self.k)
        own = next((p for p, _ in self.manifests if p >= pos), None)
        return snapshot_at >= pos or (own is not None and manifest_at >= own)

    def restarted(self, pos: int) -> bool:
        return pos <= self.k


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
def run_scenario(scenario, tmp_path, monkeypatch, model, known, drifted):
    base = tmp_path / "live"
    base.mkdir()
    trace = Trace(base)
    with monkeypatch.context() as patch:
        record(patch, trace)
        stacks = scenario(base / STATE, model, known, drifted)
    for stack in stacks:
        stack.journal.close()

    # The trace is the whole story: replayed as a process death, it
    # rebuilds the live run's directory byte for byte.
    disk = Disk()
    for op in trace.ops:
        disk.apply(op)
    live = tuple(
        sorted(
            (os.path.relpath(p, base), None if p.is_dir() else p.read_bytes())
            for p in base.rglob("*")
        )
    )
    assert disk.view(PROCESS_DEATH) == live

    records, manifests, snapshots = {}, [], []
    files = {}  # live path -> bytes, to read what each rename published
    for pos, (kind, path, *rest) in enumerate(trace.ops):
        if kind == "write":
            files[path] = rest[0]
        elif kind == "append":
            files[path] += rest[0]
            length, _ = _FRAME.unpack_from(rest[0])
            body = json.loads(rest[0][_FRAME.size : _FRAME.size + length])
            records[body["seq"]] = (body["predicted_ms"], body["observed_ms"], body["signature"])
        elif kind == "rename":
            target = rest[0]
            moved = {p: b for p, b in files.items() if p == path or p.startswith(path + "/")}
            for p, b in moved.items():
                files[target + p[len(path):]] = files.pop(p)
            if target == f"{STATE}/{MANIFEST_NAME}":
                manifests.append((pos, json.loads(files[target])["payload"]))
            elif target == f"{STATE}/{DRIFT_SNAPSHOT_NAME}":
                snapshots.append((pos, json.loads(files[target])["payload"]))

    disk = Disk()
    cache, cycles, counts = {}, {}, {PROCESS_DEATH: 0, POWER_LOSS: 0}
    scratch = tmp_path / "crash"
    for k in range(len(trace.ops) + 1):
        if k:
            disk.apply(trace.ops[k - 1])
        for crash in (PROCESS_DEATH, POWER_LOSS):
            tree = disk.view(crash)
            if tree not in cache:
                where = scratch / str(len(cache))
                where.mkdir(parents=True)
                cache[tree] = recover(tree, where)
                shutil.rmtree(where)
            got = cache[tree]
            counts[crash] += 1
            where = f"{crash} after {k} of {len(trace.ops)} operations"
            files_at = dict(tree)
            check_promises(trace.calls, k, files_at, where)
            manifest = payload(files_at, MANIFEST_NAME)
            if got.error is not None:
                assert isinstance(got.error, RecoveryError), (where, got.error)
                assert manifest is None, (where, "raised with a durable manifest", got.error)
                continue
            assert got.cycle >= cycles.get(crash, 0), (where, "cycle went back")
            cycles[crash] = got.cycle
            for name, rel in manifest["models"].items():
                saved = trace.bundles.get(rel, [])
                assert any(
                    set(state) == set(got.models[name])
                    and all(np.array_equal(state[key], got.models[name][key]) for key in state)
                    for state in saved
                ), (where, f"bundle {rel} differs from every model saved there")
            durable_seqs = disk.durable_records(crash)
            assert got.damage == (0, 0, 0), (where, got.damage)
            assert got.seqs == tuple(sorted(durable_seqs)), (where, got.seqs, durable_seqs)
            assert got.cursor <= got.max_seq, (where, got.cursor, got.max_seq)
            rule = ResetRule(
                k, manifests, snapshots, manifest, payload(files_at, DRIFT_SNAPSHOT_NAME)
            )
            reference = reference_monitor(trace, records, durable_seqs, rule, known)
            assert got.monitor == reference.state_dict(), (where, "drift monitor")
    return counts, len(cache)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_crash_point_recovers(name, tmp_path, monkeypatch, model, known, drifted):
    counts, runs = run_scenario(SCENARIOS[name], tmp_path, monkeypatch, model, known, drifted)
    print(f"{name}: {counts[PROCESS_DEATH]} crash points per model, {runs} recover runs")
