"""Atomic training checkpoints with exact-resume semantics.

A long fit must survive being killed at any instant: a checkpoint that
is half-written, or written but not yet durable, must never be mistaken
for a good one, and resuming from the last good one must reproduce the
uninterrupted run's loss trajectory *bitwise* (same batches, same
updates, same floats).  Three mechanisms deliver that:

**Atomic publication.**  :func:`save_checkpoint` serializes the archive
in memory and publishes it under its digest's name through
:func:`repro.core.durable.publish`, so that name only ever refers to a
complete, durable file; a crash mid-write leaves a dot-tmp file the
scanner ignores.

**Self-verifying names.**  The final filename embeds a content digest::

    ckpt-<epoch:06d>-<sha256[:16]>.npz

:func:`load_checkpoint` re-hashes the file and raises
:class:`CheckpointCorruptError` on mismatch, so silent on-disk
corruption (truncation, bit rot, a torn rename on a non-atomic
filesystem) is detected before any state is restored.
:func:`latest_valid_checkpoint` walks checkpoints newest-first and
*skips* corrupt ones instead of failing — resume degrades to the last
good epoch.

**Complete state capture.**  One archive holds everything the epoch
loop depends on:

========================  ====================================================
archive member            contents
========================  ====================================================
``__meta__``              0-d string array: JSON with ``format`` (version),
                          ``epoch``, ``optimizer_class``, ``rng_state``
                          (the generator's ``bit_generator.state`` dict),
                          ``history`` (the :class:`TrainingHistory` lists),
                          ``wall_clock_s`` and ``optimizer_scalars``
``model/<param name>``    every named parameter array
``opt/<key>``             every optimizer state array (momentum velocity,
                          Adam moments — flat and per-parameter)
========================  ====================================================

Scalars ride in the JSON meta; arrays ride as native npz members, so a
same-dtype round trip is bitwise (and JSON round-trips Python floats
exactly).  ``repro.core.trainer`` wires this into ``Trainer.fit(...,
checkpoint_dir=..., checkpoint_every=...)``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from . import durable

PathLike = Union[str, "os.PathLike[str]"]

#: Bump when the archive layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 1

_DIGEST_CHARS = 16
_CKPT_NAME_RE = re.compile(r"^ckpt-(\d{6})-([0-9a-f]{%d})\.npz$" % _DIGEST_CHARS)


class CheckpointError(RuntimeError):
    """Base class for checkpoint load/save failures."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file exists but cannot be trusted (torn write,
    digest mismatch, unreadable archive, missing members)."""

    def __init__(self, path: PathLike, reason: str) -> None:
        self.path = str(path)
        super().__init__(f"corrupt checkpoint {self.path}: {reason}")


@dataclass
class Checkpoint:
    """A loaded, digest-verified checkpoint."""

    epoch: int
    model_state: dict[str, np.ndarray]
    optimizer_state: dict[str, Any]  # arrays and scalars, merged
    optimizer_class: str
    rng_state: dict
    history: dict[str, list] = field(default_factory=dict)
    wall_clock_s: float = 0.0
    path: Optional[str] = None


def checkpoint_name(epoch: int, digest: str) -> str:
    """Final filename for ``epoch`` with content ``digest`` (hex)."""
    return f"ckpt-{epoch:06d}-{digest[:_DIGEST_CHARS]}.npz"


def save_checkpoint(
    directory: PathLike,
    *,
    epoch: int,
    model_state: dict[str, np.ndarray],
    optimizer_state: dict[str, Any],
    optimizer_class: str,
    rng_state: dict,
    history: Optional[dict[str, list]] = None,
    wall_clock_s: float = 0.0,
) -> Path:
    """Durably write one checkpoint; returns the published path.

    The final name embeds the content digest, so the loader can verify
    it byte-for-byte.
    """
    arrays: dict[str, np.ndarray] = {}
    opt_scalars: dict[str, Any] = {}
    for name, value in model_state.items():
        arrays[f"model/{name}"] = np.asarray(value)
    for key, value in optimizer_state.items():
        if isinstance(value, np.ndarray):
            arrays[f"opt/{key}"] = value
        else:
            opt_scalars[key] = value
    meta = {
        "format": CHECKPOINT_FORMAT_VERSION,
        "epoch": int(epoch),
        "optimizer_class": optimizer_class,
        "optimizer_scalars": opt_scalars,
        "rng_state": rng_state,
        "history": history or {},
        "wall_clock_s": float(wall_clock_s),
    }
    arrays["__meta__"] = np.array(json.dumps(meta))

    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    data = buffer.getvalue()
    digest = hashlib.sha256(data).hexdigest()
    return durable.publish(Path(directory) / checkpoint_name(epoch, digest), data)


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Load and digest-verify one checkpoint file.

    Raises :class:`CheckpointCorruptError` when the file's bytes do not
    match the digest in its name or the archive is unreadable, and
    :class:`CheckpointError` for files not named by
    :func:`checkpoint_name` at all.
    """
    path = Path(path)
    match = _CKPT_NAME_RE.match(path.name)
    if match is None:
        raise CheckpointError(f"not a checkpoint filename: {path}")
    if not path.exists():
        raise CheckpointError(f"checkpoint does not exist: {path}")
    expected = match.group(2)
    actual = hashlib.sha256(path.read_bytes()).hexdigest()
    if actual[:_DIGEST_CHARS] != expected:
        raise CheckpointCorruptError(path, f"digest mismatch (file {actual[:_DIGEST_CHARS]}, name {expected})")
    try:
        with np.load(path, allow_pickle=False) as archive:
            if "__meta__" not in archive.files:
                raise CheckpointCorruptError(path, "missing __meta__ member")
            try:
                meta = json.loads(str(archive["__meta__"]))
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise CheckpointCorruptError(path, f"unreadable meta: {error}") from error
            model_state: dict[str, np.ndarray] = {}
            optimizer_state: dict[str, Any] = dict(meta.get("optimizer_scalars", {}))
            for member in archive.files:
                if member.startswith("model/"):
                    model_state[member[len("model/"):]] = archive[member]
                elif member.startswith("opt/"):
                    optimizer_state[member[len("opt/"):]] = archive[member]
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError) as error:
        # np.load raises BadZipFile, EOFError or OSError on torn or
        # truncated archives.
        raise CheckpointCorruptError(path, f"unreadable archive: {error}") from error
    if meta.get("format") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointCorruptError(
            path, f"format {meta.get('format')!r} != {CHECKPOINT_FORMAT_VERSION}"
        )
    return Checkpoint(
        epoch=int(meta["epoch"]),
        model_state=model_state,
        optimizer_state=optimizer_state,
        optimizer_class=str(meta.get("optimizer_class", "")),
        rng_state=meta["rng_state"],
        history={key: list(value) for key, value in meta.get("history", {}).items()},
        wall_clock_s=float(meta.get("wall_clock_s", 0.0)),
        path=str(path),
    )


def atomic_write_json(path: PathLike, payload: Any) -> Path:
    """Durably publish one JSON document (drift snapshots, lifecycle
    manifests) through :func:`repro.core.durable.publish`.

    The document wraps the payload with a sha256 of its canonical
    serialization, so :func:`load_verified_json` can tell a torn or
    bit-rotted file from a good one.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    document = json.dumps(
        {"sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
         "payload": payload}
    )
    return durable.publish(path, document.encode("utf-8"))


def load_verified_json(path: PathLike) -> Any:
    """Load a document published by :func:`atomic_write_json`.

    Raises ``FileNotFoundError`` when the file is absent outright and
    :class:`CheckpointCorruptError` when it exists but cannot be trusted
    (unparseable, missing digest, digest mismatch) — JSON round-trips
    floats exactly, so re-deriving the canonical form is a faithful
    integrity check.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except UnicodeDecodeError as error:
        # Bit rot can land mid-codepoint: undecodable bytes are corruption,
        # not a caller error.
        raise CheckpointCorruptError(path, f"undecodable bytes: {error}") from error
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as error:
        raise CheckpointCorruptError(path, f"unparseable JSON: {error}") from error
    if not isinstance(document, dict) or "sha256" not in document or "payload" not in document:
        raise CheckpointCorruptError(path, "not an atomic_write_json document")
    payload = document["payload"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if digest != document["sha256"]:
        raise CheckpointCorruptError(
            path, f"payload digest mismatch (file {document['sha256'][:16]}, "
            f"computed {digest[:16]})"
        )
    return payload


def list_checkpoints(directory: PathLike) -> list[Path]:
    """All published checkpoint files under ``directory``, oldest first.

    Temp files and foreign names never match the checkpoint pattern, so
    a crash mid-save cannot surface here.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [p for p in directory.iterdir() if _CKPT_NAME_RE.match(p.name)]
    return sorted(found, key=lambda p: p.name)


def latest_valid_checkpoint(directory: PathLike) -> Optional[Checkpoint]:
    """Newest checkpoint that loads and digest-verifies, or ``None``.

    Corrupt or torn files are skipped (not deleted): resume falls back
    to the most recent epoch whose bytes check out.
    """
    for path in reversed(list_checkpoints(directory)):
        try:
            return load_checkpoint(path)
        except CheckpointError:
            continue
    return None

