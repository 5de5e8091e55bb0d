"""The one durable-write sequence: fsync temp → replace → fsync directory.

Every on-disk artifact the live runtime rewrites — the checkpoint
sidecar, the packed ``.elog``, the compacted emit journal — is written
to a temp file that is fsynced, atomically renamed over the target,
and then made durable by fsyncing the directory entry. A crash or
power loss at any point leaves either the previous complete file or
the new complete one, never a torn or empty one (``os.replace`` alone
guarantees only name atomicity, not that the replacing *contents*
reached stable storage).

The three steps are module-level seams, always called through this
module's namespace, so the crash-consistency suites can kill a writer
at exactly one step by patching one name here
(``tests/faultinject.py``).
"""

from __future__ import annotations

import os
from pathlib import Path


def fsync_handle(handle) -> None:
    """Durability seam: fsync an open file."""
    os.fsync(handle.fileno())


def replace(source: Path, dest: Path) -> None:
    """Durability seam: atomic rename."""
    os.replace(source, dest)


def fsync_directory(path: Path) -> None:
    """Durability seam: fsync a directory so a rename survives power
    loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def commit(temp: Path, target: Path) -> None:
    """Make the complete file ``temp`` durable, atomically move it
    over ``target``, and make the rename durable."""
    with open(temp, "rb") as handle:
        fsync_handle(handle)
    replace(temp, target)
    fsync_directory(target.parent)


def write_bytes(target: Path, data: bytes) -> None:
    """Durably replace ``target`` with ``data``, via the sibling temp
    file ``<name>.tmp``."""
    temp = target.with_name(target.name + ".tmp")
    temp.write_bytes(data)
    commit(temp, target)
