"""The one durable-write seam: every byte the state directory keeps.

Checkpoints, bundles, the manifest, the drift snapshot and the journal's
segments are all written through this module, built from nine
primitives of one disk effect each (:func:`write`, :func:`append`,
:func:`fsync`, :func:`fsync_dir`, :func:`rename`, :func:`unlink`,
:func:`mkdir`, :func:`rmdir`, :func:`truncate`).  The durable operations
look them up at call time, so a test can substitute any primitive, e.g.
to record the trace of disk operations a lifecycle cycle makes.

Two crash models bound what survives.  A *process death* keeps every
operation that returned (the page cache survives).  A *power loss*
keeps only the bytes a file had at its last :func:`fsync`, and a
create, rename or unlink only if its directory was fsynced after it.
The durable operations' effects survive both once they return.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Mapping, Union

PathLike = Union[str, "os.PathLike[str]"]

unlink, mkdir, rmdir, truncate = os.unlink, os.mkdir, os.rmdir, os.truncate


def write(path: PathLike, data: bytes) -> BinaryIO:
    """Create (or empty) ``path`` holding ``data``, flushed, not fsynced."""
    handle = open(path, "wb")
    try:
        handle.write(data)
        handle.flush()
    except BaseException:
        handle.close()
        raise
    return handle


def append(handle: BinaryIO, data: bytes) -> None:
    handle.write(data)
    handle.flush()


def fsync(handle: BinaryIO) -> None:
    os.fsync(handle.fileno())


def fsync_dir(path: PathLike) -> None:
    """Make a directory's entries durable (where it can be opened)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def rename(source: PathLike, target: PathLike) -> None:
    os.replace(source, target)


def make_dirs(path: PathLike) -> Path:
    """Make each missing level of ``path``, fsyncing its parent after."""
    path = level = Path(path)
    missing = []
    while not level.is_dir():
        missing.append(level)
        level = level.parent
    for level in reversed(missing):
        mkdir(level)
        fsync_dir(level.parent)
    return path


def remove(path: PathLike) -> None:
    """Unlink a file or remove a directory tree, then fsync the parent."""
    path = Path(path)
    if path.is_dir() and not path.is_symlink():
        for root, dirs, files in os.walk(path, topdown=False):
            for name in files:
                unlink(os.path.join(root, name))
            for name in dirs:
                rmdir(os.path.join(root, name))
        rmdir(path)
    else:
        unlink(path)
    fsync_dir(path.parent)


def publish(path: PathLike, data: bytes) -> Path:
    """Replace ``path``'s contents with ``data`` (temp file, fsync, rename,
    directory fsync): a crash leaves the old contents or the new."""
    path = Path(path)
    temp = make_dirs(path.parent) / f".{path.name}.tmp"
    try:
        with write(temp, data) as handle:
            fsync(handle)
        rename(temp, path)
    except BaseException:
        if temp.exists():
            unlink(temp)
        raise
    fsync_dir(path.parent)
    return path


def publish_dir(path: PathLike, files: Mapping[str, bytes]) -> Path:
    """Publish a directory holding exactly ``files``: each written and
    fsynced in a sibling temp directory, which is fsynced and renamed
    into place, then the parent is fsynced.  An existing ``path`` (a
    candidate saved just before a crash) is removed durably first."""
    path = Path(path)
    temp = make_dirs(path.parent) / f".{path.name}.tmp"
    for stale in (temp, path):
        if stale.exists():
            remove(stale)
    mkdir(temp)
    for name, data in files.items():
        with write(temp / name, data) as handle:
            fsync(handle)
    fsync_dir(temp)
    rename(temp, path)
    fsync_dir(path.parent)
    return path


def open_append(path: PathLike) -> BinaryIO:
    """Reopen an existing file for :func:`append` (no disk effect)."""
    return open(path, "ab")
