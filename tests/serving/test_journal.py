"""The on-disk outcome journal: framing, rotation, torn tails, bit rot,
sick disks, pruning — and the plan-payload featurization round trip
(ISSUE 10: durable serving state)."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.featurize import Featurizer
from repro.ingest import UNKNOWN_OP_PROP, parse
from repro.plans.node import PlanNode
from repro.serving import (
    InferenceSession,
    JournalError,
    ModelRegistry,
    OutcomeJournal,
    PredictionService,
)
from repro.serving.journal import (
    MAX_RECORD_BYTES,
    SEGMENT_MAGIC,
    decode_record,
    encode_record,
)
from repro.serving.service import OutcomeLog, OutcomeRecord
from repro.testing import failing_fsync, flip_byte, torn_tail
from repro.workload import Workbench

pytestmark = pytest.mark.chaos

FIXTURES = Path(__file__).parent.parent / "fixtures" / "explain"


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", scale_factor=0.2, seed=0).generate(
        24, rng=np.random.default_rng(5)
    )


@pytest.fixture(scope="module")
def plans(corpus):
    return [s.plan for s in corpus]


def make_record(seq, plan, predicted=123.456, observed=150.0):
    return OutcomeRecord(
        seq=seq,
        signature=plan.structure_signature(),
        predicted_ms=predicted,
        observed_ms=observed,
        model="qpp",
        timestamp=1700000000.0 + seq,
        plan=plan,
    )


def fill(journal, plans, n, start_seq=1):
    records = [
        make_record(start_seq + i, plans[i % len(plans)], predicted=10.0 + i)
        for i in range(n)
    ]
    for rec in records:
        assert journal.append(rec)
    return records


def replay_and_close(directory, **kwargs):
    """Recover a journal directory, then release the append handle that
    ``recover()`` opens on its last segment."""
    journal = OutcomeJournal(directory, **kwargs)
    replay = journal.recover()
    journal.close()
    return replay


def assert_records_equal(replayed, originals):
    assert len(replayed) == len(originals)
    for got, ref in zip(replayed, originals):
        assert got.seq == ref.seq
        assert got.signature == ref.signature
        assert got.predicted_ms == ref.predicted_ms  # exact: JSON floats
        assert got.observed_ms == ref.observed_ms
        assert got.model == ref.model
        assert got.timestamp == ref.timestamp
        assert got.plan.structure_signature() == ref.plan.structure_signature()


# ----------------------------------------------------------------------
# Framing and the plan payload
# ----------------------------------------------------------------------
class TestFraming:
    def test_encode_decode_round_trip_is_exact(self, plans):
        rec = make_record(7, plans[0], predicted=0.1 + 0.2)  # ugly float
        clone = decode_record(encode_record(rec))
        assert clone.seq == rec.seq
        assert clone.predicted_ms == rec.predicted_ms  # bitwise via repr
        assert clone.observed_ms == rec.observed_ms
        assert clone.plan.to_dict() == rec.plan.to_dict()

    def test_payload_is_compact_json(self, plans):
        payload = encode_record(make_record(1, plans[0]))
        doc = json.loads(payload.decode("utf-8"))
        assert set(doc) == {
            "seq", "signature", "predicted_ms", "observed_ms",
            "model", "timestamp", "plan",
        }
        assert b" " not in payload.split(b'"filter"')[0][:40]

    def test_config_validation(self, tmp_path):
        with pytest.raises(JournalError):
            OutcomeJournal(tmp_path, segment_max_bytes=4)
        with pytest.raises(JournalError):
            OutcomeJournal(tmp_path, fsync_every=0)


@pytest.mark.ingest
class TestPlanPayloadFeaturization:
    """Satellite: a journaled plan must reconstruct bitwise-identical
    featurization inputs — across every ingest dialect, including plans
    with fallback-degraded (unknown) operators."""

    CASES = [
        ("postgres", "q1_0"),
        ("postgres", "qunknown_0"),
        ("duckdb", "d3_0"),
        ("duckdb", "dunknown_0"),
        ("mysql", "m1_0"),
        ("mysql", "m2_0"),
    ]

    @pytest.mark.parametrize("engine,stem", CASES)
    def test_round_trip_features_bitwise(self, engine, stem):
        doc = json.loads((FIXTURES / engine / f"{stem}.json").read_text())
        ingested = parse(doc, engine)
        assert ingested, f"fixture {engine}/{stem} parsed to nothing"
        for item in ingested:
            plan = item.plan
            featurizer = Featurizer().fit([plan])
            rec = make_record(1, plan)
            clone = decode_record(encode_record(rec))
            assert clone.plan.structure_signature() == plan.structure_signature()
            original = featurizer.transform_plan(plan)
            replayed = featurizer.transform_plan(clone.plan)
            assert len(original) == len(replayed)
            for ref, got in zip(original, replayed):
                assert np.array_equal(
                    np.asarray(ref), np.asarray(got)
                ), f"feature drift for {engine}/{stem}"

    def test_fallback_markers_survive(self):
        doc = json.loads((FIXTURES / "postgres" / "qunknown_0.json").read_text())
        plan = parse(doc, "postgres")[0].plan
        clone = decode_record(encode_record(make_record(1, plan))).plan
        original_marks = [UNKNOWN_OP_PROP in n.props for n in plan.preorder()]
        replayed_marks = [UNKNOWN_OP_PROP in n.props for n in clone.preorder()]
        assert any(original_marks)
        assert replayed_marks == original_marks


# ----------------------------------------------------------------------
# Append / recover round trips
# ----------------------------------------------------------------------
class TestAppendRecover:
    def test_clean_round_trip(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        records = fill(journal, plans, 12)
        journal.close()
        replay = replay_and_close(tmp_path)
        assert replay.clean
        assert replay.max_seq == 12
        assert_records_equal(replay.records, records)

    def test_rotation_spreads_segments(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=4096, fsync_every=1)
        records = fill(journal, plans, 30)
        segments = journal.segments()
        assert len(segments) > 1
        # Segment names are the first seq they hold, in replay order.
        firsts = [int(p.name[len("segment-"):-len(".wal")]) for p in segments]
        assert firsts == sorted(firsts) and firsts[0] == 1
        journal.close()
        replay = replay_and_close(tmp_path, segment_max_bytes=4096)
        assert replay.clean and replay.segments_scanned == len(segments)
        assert_records_equal(replay.records, records)

    def test_recover_then_append_continues(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        fill(journal, plans, 5)
        journal.close()
        fresh = OutcomeJournal(tmp_path, fsync_every=1)
        replay = fresh.recover()
        assert replay.max_seq == 5
        fill(fresh, plans, 3, start_seq=6)
        fresh.close()
        final = replay_and_close(tmp_path)
        assert [r.seq for r in final.records] == list(range(1, 9))
        # No spurious extra segment: appends continued the last one.
        assert final.segments_scanned == 1

    def test_empty_directory_replays_empty(self, tmp_path):
        replay = replay_and_close(tmp_path)
        assert replay.clean and replay.records == () and replay.max_seq == 0


# ----------------------------------------------------------------------
# Crash damage: torn tails, bit rot, quarantine
# ----------------------------------------------------------------------
class TestDamage:
    def test_torn_tail_truncated_and_counted(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        records = fill(journal, plans, 6)
        journal.close()
        segment = journal.segments()[-1]
        torn_tail(segment, drop_bytes=37)  # rip into the final record
        replay = replay_and_close(tmp_path)
        assert replay.torn_tail_bytes > 0
        assert replay.corrupt_segments == 0
        assert [r.seq for r in replay.records] == [r.seq for r in records[:-1]]
        # The tail is gone from disk too: a second replay is clean.
        again = replay_and_close(tmp_path)
        assert again.clean and again.max_seq == 5

    def test_torn_header_truncated(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        fill(journal, plans, 3)
        journal.close()
        segment = journal.segments()[-1]
        size = segment.stat().st_size
        # Reconstruct record 3 exactly as fill() framed it, so the cut
        # lands 3 bytes into its 8-byte frame header.
        payload_len = len(encode_record(make_record(3, plans[2], predicted=12.0)))
        torn_tail(segment, drop_bytes=payload_len + 5)
        replay = replay_and_close(tmp_path)
        assert replay.torn_tail_bytes > 0
        assert replay.max_seq == 2
        assert segment.stat().st_size < size

    def test_bit_flip_in_payload_skips_one_record(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        fill(journal, plans, 8)
        journal.close()
        segment = journal.segments()[0]
        # Flip a byte inside the FIRST record's payload: framing stays
        # walkable, so only that record is lost.
        flip_byte(segment, len(SEGMENT_MAGIC) + 8 + 10)
        replay = replay_and_close(tmp_path)
        assert replay.corrupt_records == 1
        assert replay.corrupt_segments == 0
        assert [r.seq for r in replay.records] == list(range(2, 9))

    def test_bad_magic_quarantines_segment(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=4096, fsync_every=1)
        records = fill(journal, plans, 30)
        segments = journal.segments()
        assert len(segments) >= 3
        journal.close()
        flip_byte(segments[1], 0)  # middle segment's magic
        replay = replay_and_close(tmp_path, segment_max_bytes=4096)
        assert replay.corrupt_segments == 1
        seqs = {r.seq for r in replay.records}
        assert seqs < {r.seq for r in records}  # strictly fewer
        # Quarantined, not deleted, and no longer scanned.
        assert any(p.suffix.startswith(".corrupt") for p in tmp_path.iterdir())
        assert replay_and_close(tmp_path, segment_max_bytes=4096).clean

    def test_broken_framing_mid_segment_quarantines(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=4096, fsync_every=1)
        fill(journal, plans, 30)
        segments = journal.segments()
        assert len(segments) >= 2
        journal.close()
        # An implausible length in a NON-final segment's first header
        # breaks the frame chain: quarantine, replay continues after.
        with open(segments[0], "r+b") as handle:
            handle.seek(len(SEGMENT_MAGIC))
            handle.write((MAX_RECORD_BYTES + 1).to_bytes(4, "little"))
        replay = replay_and_close(tmp_path, segment_max_bytes=4096)
        assert replay.corrupt_segments == 1
        assert replay.records  # later segments still replayed
        assert min(r.seq for r in replay.records) > 1

    def test_never_raises_on_arbitrary_garbage(self, tmp_path):
        (tmp_path / "segment-00000001.wal").write_bytes(os.urandom(512))
        (tmp_path / "segment-00000099.wal").write_bytes(b"")
        replay = replay_and_close(tmp_path)
        assert replay.corrupt_segments == 2
        assert replay.records == ()


# ----------------------------------------------------------------------
# Sick disks: fsync failure degrades, never raises
# ----------------------------------------------------------------------
class TestSickDisk:
    def test_fsync_failure_degrades_to_counter(self, tmp_path, plans):
        journal = OutcomeJournal(
            tmp_path, fsync_every=2, fsync_fn=failing_fsync(calls={1})
        )
        rec1, rec2 = fill(journal, plans, 1), None
        assert journal.io_errors == 0
        # Second append triggers the batched fsync, which fails: the
        # append reports False, the counter bumps, nothing raises.
        assert journal.append(make_record(2, plans[1])) is False
        assert journal.io_errors == 1
        # The handle reopens on the next append and the journal heals.
        assert journal.append(make_record(3, plans[2]))
        journal.close()
        replay = replay_and_close(tmp_path)
        assert 1 in {r.seq for r in replay.records}
        assert 3 in {r.seq for r in replay.records}

    def test_sync_failure_counted(self, tmp_path, plans):
        journal = OutcomeJournal(
            tmp_path, fsync_every=1000, fsync_fn=failing_fsync(every=1)
        )
        fill(journal, plans, 2)  # batched: no fsync yet, appends succeed
        assert journal.sync() is False
        assert journal.io_errors == 1

    def test_journaled_log_survives_sick_disk(self, tmp_path, plans):
        """The OutcomeLog keeps recording in memory even when every
        journal write fails — durability degrades, serving never dies."""
        journal = OutcomeJournal(
            tmp_path, fsync_every=1, fsync_fn=failing_fsync(every=1)
        )
        log = OutcomeLog(8, journal=journal)
        for i, plan in enumerate(plans[:5]):
            log.record(
                signature=plan.structure_signature(),
                predicted_ms=10.0,
                observed_ms=12.0,
                model="qpp",
                plan=plan,
            )
        assert log.total == 5
        assert journal.io_errors == 5


# ----------------------------------------------------------------------
# Sync: an fsync only when something is not yet durable
# ----------------------------------------------------------------------
class TestSync:
    def test_sync_right_after_a_batched_fsync_does_not_fsync(self, tmp_path, plans):
        calls = []
        journal = OutcomeJournal(tmp_path, fsync_every=4, fsync_fn=calls.append)
        fill(journal, plans, 4)
        assert len(calls) == 1  # the batched fsync
        assert journal.sync()
        assert len(calls) == 1
        journal.close()
        assert len(calls) == 1

    def test_first_sync_after_recover_fsyncs_the_reopened_segment(
        self, tmp_path, plans
    ):
        """The reopened segment may hold a dead process's unsynced tail
        (or a fresh truncation): the first sync after a restart fsyncs
        it, and the next one has nothing to do."""
        journal = OutcomeJournal(tmp_path, fsync_every=64)
        fill(journal, plans, 3)
        journal._close_locked()  # the process dies before its batched fsync
        calls = []
        fresh = OutcomeJournal(tmp_path, fsync_fn=calls.append)
        assert len(fresh.recover().records) == 3
        assert fresh.sync()
        assert len(calls) == 1
        assert fresh.sync()
        assert len(calls) == 1
        fresh.close()


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------
class TestPrune:
    def test_prunes_whole_dead_segments_only(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=4096, fsync_every=1)
        fill(journal, plans, 30)
        segments = journal.segments()
        assert len(segments) >= 3
        firsts = [int(p.name[len("segment-"):-len(".wal")]) for p in segments]
        # Prune below the second segment's first seq: only segment 1 dies.
        doomed = journal.prune(firsts[1])
        assert doomed == [segments[0]]
        assert journal.segments() == segments[1:]
        # min_seq below any later segment prunes nothing more.
        assert journal.prune(firsts[1]) == []
        journal.close()
        replay = replay_and_close(tmp_path, segment_max_bytes=4096)
        assert min(r.seq for r in replay.records) == firsts[1]
        assert replay.max_seq == 30
        # The newest segment is never pruned, even with a huge cursor.
        fresh = OutcomeJournal(tmp_path, segment_max_bytes=4096)
        fresh.prune(10**9)
        assert fresh.segments() == [segments[-1]]


# ----------------------------------------------------------------------
# Fallback-degraded plans surface in ServiceStats (satellite)
# ----------------------------------------------------------------------
class TestFallbackUnitPlans:
    def test_served_fallback_plans_counted(self, plans):
        doc = json.loads((FIXTURES / "postgres" / "qunknown_0.json").read_text())
        degraded = parse(doc, "postgres")[0].plan
        assert any(UNKNOWN_OP_PROP in n.props for n in degraded.preorder())
        everything = plans + [degraded]
        featurizer = Featurizer().fit(everything)
        from repro.core import QPPNet, QPPNetConfig

        net = QPPNet(
            featurizer,
            QPPNetConfig(hidden_layers=1, neurons=8, data_size=4, seed=0),
        )
        registry = ModelRegistry()
        registry.register_session("qpp", InferenceSession(net))
        service = PredictionService(registry, default_model="qpp")
        with service:
            for plan in plans[:4]:
                service.submit(plan).result(timeout=30)
            assert service.stats().fallback_unit_plans == 0
            for _ in range(3):
                service.submit(degraded).result(timeout=30)
        stats = service.stats()
        assert stats.fallback_unit_plans == 3
        assert stats.completed == 7
