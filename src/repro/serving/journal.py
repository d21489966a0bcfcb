"""Crash-safe outcome journal: an append-only on-disk WAL for outcomes.

Everything the online-learning loop knows — the observed stream that
drift detection and retraining consume — used to live in one in-memory
deque, so a process restart re-armed drift cold and forgot every
outcome.  :class:`OutcomeJournal` makes the stream durable: every
:class:`~repro.serving.service.OutcomeRecord` appended to an
:class:`~repro.serving.service.OutcomeLog` wired with a journal is also
framed, checksummed and written to a segment file, and
:meth:`OutcomeJournal.recover` replays the segments after a crash —
tolerating exactly the damage a kill -9 can inflict.

**On-disk format.**  A journal is a directory of segment files named
``segment-<firstseq:08d>.wal`` (the zero-padded sequence number of the
segment's first record, so lexicographic order is replay order).  Each
segment starts with an 8-byte magic (:data:`SEGMENT_MAGIC`, which
carries the format version) followed by length+CRC framed records::

    <u32 payload length> <u32 crc32(payload)> <payload bytes>

(little-endian).  The payload is one compact-JSON object holding the
record's scalars plus the plan serialized through the existing
plan-JSON round-trip (:meth:`~repro.plans.node.PlanNode.to_dict`), so a
replayed plan reconstructs bitwise-identical featurization inputs.

**Write path.**  Every disk effect goes through :mod:`repro.core.durable`.
A new segment's magic and directory entry are fsynced before its first
record.  Every append is flushed to the OS, and ``fsync`` is *batched*:
one per ``fsync_every`` appends, plus on :meth:`sync`/:meth:`close` and
before a rotation closes a segment, so a power loss takes at most the
newest records of the final segment.  An
``OSError`` out of the write or fsync (disk full, injected fault) is
swallowed into the ``io_errors`` counter and the handle is closed for
reopen on the next append: durability degrades, serving never dies.

**Replay rules** (:meth:`recover`) — never an unhandled exception:

* a short read of the header or payload at the *tail of the final
  segment* is a torn write: the tail is truncated
  (``torn_tail_bytes``) so appends continue from the last good frame;
* a CRC mismatch with intact framing is a corrupt *record*: skipped
  and counted (``corrupt_records``), replay continues at the next
  frame;
* a bad magic, an implausible length, or a short read in a non-final
  segment breaks the framing itself: the rest of that segment is
  unwalkable, so the segment is quarantined (renamed to
  ``*.corrupt``, counted in ``corrupt_segments``) and replay continues
  with the next segment.

Sequence numbers are assigned by the :class:`OutcomeLog`, not here; the
journal preserves them, and :meth:`prune` drops whole segments once
every record in them is both below the drift snapshot cursor and
outside the in-memory log's retention window.
"""

from __future__ import annotations

import json
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.core import durable
from repro.plans.node import PlanNode

from .resilience import JournalError
from .service import OutcomeRecord

__all__ = [
    "OutcomeJournal",
    "ReplayResult",
    "decode_record",
    "encode_record",
]

PathLike = Union[str, "os.PathLike[str]"]

#: First 8 bytes of every segment; the trailing digit is the format
#: version — bump it when the frame layout changes incompatibly.
SEGMENT_MAGIC = b"QPPWAL1\n"

#: ``<u32 payload length><u32 crc32>`` little-endian frame header.
_FRAME = struct.Struct("<II")

#: Upper bound on one framed payload; a decoded length beyond this is
#: broken framing (a bit-flipped header), not a giant record.
MAX_RECORD_BYTES = 16 << 20

_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.wal$")


def encode_record(record: OutcomeRecord) -> bytes:
    """One record as its compact-JSON journal payload (no framing)."""
    payload = {
        "seq": record.seq,
        "signature": record.signature,
        "predicted_ms": record.predicted_ms,
        "observed_ms": record.observed_ms,
        "model": record.model,
        "timestamp": record.timestamp,
        "plan": record.plan.to_dict(),
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_record(data: bytes) -> OutcomeRecord:
    """Inverse of :func:`encode_record` (raises on malformed payloads;
    :meth:`OutcomeJournal.recover` catches and counts those)."""
    payload = json.loads(data.decode("utf-8"))
    return OutcomeRecord(
        seq=int(payload["seq"]),
        signature=str(payload["signature"]),
        predicted_ms=float(payload["predicted_ms"]),
        observed_ms=float(payload["observed_ms"]),
        model=str(payload["model"]),
        timestamp=float(payload["timestamp"]),
        plan=PlanNode.from_dict(payload["plan"]),
    )


@dataclass(frozen=True)
class ReplayResult:
    """What :meth:`OutcomeJournal.recover` found on disk.

    The damage counters are the journal's typed warning surface: a torn
    tail or corrupt segment never raises, it lands here.
    """

    #: Every decodable record, in journal (= sequence) order.
    records: tuple[OutcomeRecord, ...]
    #: Segment files scanned (including quarantined ones).
    segments_scanned: int
    #: Frames whose CRC (or payload decode) failed with intact framing.
    corrupt_records: int
    #: Segments quarantined whole (bad magic / broken framing).
    corrupt_segments: int
    #: Bytes truncated off the final segment's torn tail.
    torn_tail_bytes: int

    @property
    def max_seq(self) -> int:
        """Highest replayed sequence number (0 when empty)."""
        return self.records[-1].seq if self.records else 0

    @property
    def clean(self) -> bool:
        return not (self.corrupt_records or self.corrupt_segments or self.torn_tail_bytes)


class OutcomeJournal:
    """Append-only, segment-rotated, checksummed journal of outcomes.

    Thread-safe; meant to be owned by one
    :class:`~repro.serving.service.OutcomeLog` (which appends under its
    own lock, so journal order always equals sequence order).

    Parameters
    ----------
    directory:
        The journal directory (created if missing).
    segment_max_bytes:
        Rotate to a fresh segment once the current one exceeds this.
    fsync_every:
        Batched-flush interval: one real ``fsync`` per this many
        appends.  ``1`` fsyncs every append (maximum durability);
        higher values bound the crash-loss window at ``fsync_every - 1``
        records while amortizing the flush.
    fsync_fn:
        Injection seam for the chaos drills: an ``os.fsync`` stand-in for
        the record fsync (default :func:`repro.core.durable.fsync`); see
        :func:`repro.testing.faults.failing_fsync`.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        segment_max_bytes: int = 1 << 20,
        fsync_every: int = 64,
        fsync_fn=None,
    ) -> None:
        if segment_max_bytes < len(SEGMENT_MAGIC) + _FRAME.size + 1:
            raise JournalError("segment_max_bytes is too small to hold one record")
        if fsync_every < 1:
            raise JournalError("fsync_every must be >= 1")
        self.directory = durable.make_dirs(directory)
        self.segment_max_bytes = int(segment_max_bytes)
        self.fsync_every = int(fsync_every)
        self._fsync_fn = fsync_fn
        self._lock = threading.Lock()
        self._handle = None
        self._path: Optional[Path] = None
        self._size = 0
        self._unsynced = 0
        #: Records successfully framed and written (this process).
        self.appended = 0
        #: OSErrors swallowed on the write path (write or fsync); each
        #: one degrades durability for in-flight records, never serving.
        self.io_errors = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def append(self, record: OutcomeRecord) -> bool:
        """Frame, checksum and write one record; ``True`` on success.

        Never raises on I/O failure: a failed write/rotate closes the
        handle (reopened on the next append), bumps ``io_errors`` and
        returns ``False`` — the in-memory log still holds the record,
        only its durability is lost.
        """
        payload = encode_record(record)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        with self._lock:
            try:
                if self._handle is None or (
                    self._size + len(frame) > self.segment_max_bytes
                    and self._size > len(SEGMENT_MAGIC)
                ):
                    self._rotate_locked(record.seq)
                durable.append(self._handle, frame)
                self._size += len(frame)
                self._unsynced += 1
                if self._unsynced >= self.fsync_every:
                    self._fsync_locked()
            except OSError:
                self.io_errors += 1
                self._close_locked()
                return False
            self.appended += 1
            return True

    def sync(self) -> bool:
        """Force the batched fsync now; ``True`` when durable.  Nothing
        appended since the last fsync means nothing to fsync."""
        with self._lock:
            if self._handle is None or not self._unsynced:
                return True
            try:
                self._fsync_locked()
            except OSError:
                self.io_errors += 1
                self._close_locked()
                return False
            return True

    def close(self) -> None:
        """Flush, fsync and release the write handle (reopens on append)."""
        self.sync()
        with self._lock:
            self._close_locked()

    def _fsync_locked(self) -> None:
        if self._fsync_fn is None:
            durable.fsync(self._handle)
        else:
            self._fsync_fn(self._handle.fileno())
        self._unsynced = 0

    def _close_locked(self) -> None:
        handle, self._handle = self._handle, None
        self._path = None
        self._size = 0
        self._unsynced = 0
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _rotate_locked(self, first_seq: int) -> None:
        """Fsync the closing segment; open one named after its first seq."""
        if self._unsynced:
            self._fsync_locked()
        self._close_locked()
        path = self.directory / f"segment-{first_seq:08d}.wal"
        while path.exists():
            # A quarantine or replayed-total mismatch left a file with
            # this name; never overwrite journal bytes.
            first_seq += 1
            path = self.directory / f"segment-{first_seq:08d}.wal"
        self._handle = durable.write(path, SEGMENT_MAGIC)
        durable.fsync(self._handle)  # the entry must never name an empty file
        durable.fsync_dir(self.directory)
        self._path = path
        self._size = len(SEGMENT_MAGIC)
        self._unsynced = 0

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def segments(self) -> list[Path]:
        """Live segment files, replay order (quarantined ones excluded)."""
        found = [p for p in self.directory.iterdir() if _SEGMENT_RE.match(p.name)]
        return sorted(found, key=lambda p: p.name)

    def recover(self) -> ReplayResult:
        """Replay every segment; repair the tail; never raise.

        After ``recover`` the journal appends cleanly: the final
        segment's torn tail (if any) has been truncated away and
        unwalkable segments renamed to ``*.corrupt`` so they are never
        rescanned (and their names can never collide with new
        segments).  Call once, before the first :meth:`append`.
        """
        with self._lock:
            self._close_locked()
            records: list[OutcomeRecord] = []
            corrupt_records = 0
            corrupt_segments = 0
            torn_tail_bytes = 0
            segments = self.segments()
            for index, path in enumerate(segments):
                final = index == len(segments) - 1
                try:
                    segment_records, bad, keep = self._replay_segment(path, final)
                except OSError:
                    self._quarantine(path)
                    corrupt_segments += 1
                    continue
                if keep is None:
                    self._quarantine(path)
                    corrupt_segments += 1
                    continue
                records.extend(segment_records)
                corrupt_records += bad
                if final:
                    try:
                        size = path.stat().st_size
                        if keep < size:
                            torn_tail_bytes = size - keep
                            durable.truncate(path, keep)
                    except OSError:
                        pass
            # Append to the last surviving segment instead of rotating.
            live = self.segments()
            if live:
                try:
                    self._handle = durable.open_append(live[-1])
                    self._path = live[-1]
                    self._size = live[-1].stat().st_size
                    # The dead process's unsynced tail, or the torn-tail
                    # truncation, may not be durable yet: the first sync
                    # (or rotation) must fsync the reopened segment.
                    self._unsynced = 1
                except OSError:
                    self.io_errors += 1
                    self._close_locked()
            return ReplayResult(
                records=tuple(records),
                segments_scanned=len(segments),
                corrupt_records=corrupt_records,
                corrupt_segments=corrupt_segments,
                torn_tail_bytes=torn_tail_bytes,
            )

    def _replay_segment(
        self, path: Path, final: bool
    ) -> tuple[list[OutcomeRecord], int, Optional[int]]:
        """Walk one segment's frames.

        Returns ``(records, corrupt_records, keep_bytes)`` where
        ``keep_bytes`` is the prefix length that framed cleanly —
        ``None`` means the framing itself is broken mid-segment (or the
        magic is wrong) and the caller must quarantine the file.  In
        the *final* segment a short read is a torn tail, reported via
        ``keep_bytes < file size``; in earlier segments it is breakage.
        """
        records: list[OutcomeRecord] = []
        corrupt = 0
        with open(path, "rb") as handle:
            magic = handle.read(len(SEGMENT_MAGIC))
            if magic != SEGMENT_MAGIC:
                return [], 0, None
            good = handle.tell()
            while True:
                header = handle.read(_FRAME.size)
                if not header:
                    return records, corrupt, good  # clean end
                if len(header) < _FRAME.size:
                    # Torn header: truncate (final) or broken (earlier).
                    return (records, corrupt, good) if final else ([], 0, None)
                length, crc = _FRAME.unpack(header)
                if length > MAX_RECORD_BYTES:
                    # Implausible length = a damaged header; the frame
                    # chain cannot be walked past it.
                    return (records, corrupt, good) if final else ([], 0, None)
                payload = handle.read(length)
                if len(payload) < length:
                    return (records, corrupt, good) if final else ([], 0, None)
                if zlib.crc32(payload) != crc:
                    corrupt += 1  # framing intact: skip just this record
                else:
                    try:
                        records.append(decode_record(payload))
                    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                        corrupt += 1
                good = handle.tell()

    def _quarantine(self, path: Path) -> None:
        target = path.with_suffix(".corrupt")
        n = 0
        while target.exists():
            n += 1
            target = path.with_suffix(f".corrupt{n}")
        try:
            durable.rename(path, target)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self, min_seq: int) -> list[Path]:
        """Delete whole segments holding only records below ``min_seq``.

        A segment is prunable when the *next* segment's first sequence
        number is ``<= min_seq`` (so every record it holds is strictly
        older); the currently-open segment is never pruned.  Returns the
        deleted paths.
        """
        with self._lock:
            segments = self.segments()
            doomed: list[Path] = []
            for path, nxt in zip(segments, segments[1:]):
                first_next = int(_SEGMENT_RE.match(nxt.name).group(1))
                if first_next <= min_seq and path != self._path:
                    doomed.append(path)
                else:
                    break
            for path in doomed:
                try:
                    durable.remove(path)
                except OSError:
                    break
            return doomed

    def __repr__(self) -> str:
        return (
            f"OutcomeJournal({str(self.directory)!r}, appended={self.appended}, "
            f"io_errors={self.io_errors})"
        )
