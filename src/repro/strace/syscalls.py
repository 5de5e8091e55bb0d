"""Catalog of I/O system calls and their strace signatures.

The paper traces "the system calls on LINUX-based operating systems that
are implemented based on the interfaces defined in the C standard
library under the headers unistd.h and sys/uio.h" (Sec. I), and parses
the *file path* from the ``fd</path>`` annotation produced by ``-y`` and
the *transfer size* from the return value — "only for the variants of
read and write system calls (and not for other I/O system calls such as
lseek, openat, etc.)" (Sec. III item 6).

This module encodes, per syscall:

- where the file path lives (an fd-annotated argument, a quoted path
  argument, or the fd-annotated *return value* — ``openat`` under ``-y``
  annotates the returned descriptor);
- whether the return value is a transfer size and in which direction;
- the family (read-like / write-like / open / close / seek / sync / other),
  used by statistics and by the simulator's API layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class SyscallFamily(enum.Enum):
    """Coarse classification of I/O syscalls used across the library."""

    READ = "read"        #: data moves storage -> user buffer
    WRITE = "write"      #: data moves user buffer -> storage
    OPEN = "open"        #: creates/opens a descriptor
    CLOSE = "close"      #: releases a descriptor
    SEEK = "seek"        #: moves a file offset
    SYNC = "sync"        #: flushes data/metadata to storage
    STAT = "stat"        #: metadata query
    OTHER = "other"      #: anything else we may encounter


class PathSource(enum.Enum):
    """Where the ``fp`` event attribute is recovered from."""

    FD_ARG = "fd_arg"          #: ``read(3</path>, ...)`` — arg 0 annotation
    RET_FD = "ret_fd"          #: ``openat(...) = 3</path>`` — return annotation
    PATH_ARG = "path_arg"      #: quoted string argument (fallback w/o -y)
    NONE = "none"              #: call carries no path


@dataclass(frozen=True, slots=True)
class SyscallSpec:
    """Static description of one syscall's strace signature.

    Attributes
    ----------
    name:
        Syscall name as printed by strace.
    family:
        Coarse :class:`SyscallFamily`.
    path_source:
        Where to find the file path (see :class:`PathSource`).
    path_arg_index:
        Argument index for ``FD_ARG``/``PATH_ARG`` sources.
    returns_size:
        True iff the return value is a byte transfer count (read/write
        variants only, per the paper).
    requested_arg_index:
        Argument index of the requested byte count (``read(fd, buf,
        COUNT)`` → 2), or None when the signature carries no flat byte
        count (vectored I/O passes lengths inside the iovec array).
    """

    name: str
    family: SyscallFamily
    path_source: PathSource = PathSource.FD_ARG
    path_arg_index: int = 0
    returns_size: bool = False
    requested_arg_index: int | None = None


def _spec(name: str, family: SyscallFamily, **kw) -> tuple[str, SyscallSpec]:
    return name, SyscallSpec(name=name, family=family, **kw)


#: Every syscall the parser knows the shape of. Unknown calls still parse
#: (generic path extraction is attempted) but get family OTHER.
SYSCALL_CATALOG: dict[str, SyscallSpec] = dict(
    [
        # unistd.h read/write variants — return value is the transfer size
        _spec("read", SyscallFamily.READ, returns_size=True,
              requested_arg_index=2),
        _spec("write", SyscallFamily.WRITE, returns_size=True,
              requested_arg_index=2),
        _spec("pread64", SyscallFamily.READ, returns_size=True,
              requested_arg_index=2),
        _spec("pwrite64", SyscallFamily.WRITE, returns_size=True,
              requested_arg_index=2),
        # sys/uio.h vectored variants
        _spec("readv", SyscallFamily.READ, returns_size=True),
        _spec("writev", SyscallFamily.WRITE, returns_size=True),
        _spec("preadv", SyscallFamily.READ, returns_size=True),
        _spec("pwritev", SyscallFamily.WRITE, returns_size=True),
        _spec("preadv2", SyscallFamily.READ, returns_size=True),
        _spec("pwritev2", SyscallFamily.WRITE, returns_size=True),
        # descriptor management — openat annotates the *returned* fd under -y
        _spec("open", SyscallFamily.OPEN, path_source=PathSource.RET_FD),
        _spec("openat", SyscallFamily.OPEN, path_source=PathSource.RET_FD),
        _spec("creat", SyscallFamily.OPEN, path_source=PathSource.RET_FD),
        _spec("close", SyscallFamily.CLOSE),
        _spec("dup", SyscallFamily.OTHER),
        _spec("dup2", SyscallFamily.OTHER),
        _spec("dup3", SyscallFamily.OTHER),
        # offsets
        _spec("lseek", SyscallFamily.SEEK),
        _spec("llseek", SyscallFamily.SEEK),
        # durability
        _spec("fsync", SyscallFamily.SYNC),
        _spec("fdatasync", SyscallFamily.SYNC),
        _spec("sync", SyscallFamily.SYNC, path_source=PathSource.NONE),
        _spec("syncfs", SyscallFamily.SYNC),
        # metadata
        _spec("stat", SyscallFamily.STAT, path_source=PathSource.PATH_ARG),
        _spec("lstat", SyscallFamily.STAT, path_source=PathSource.PATH_ARG),
        _spec("fstat", SyscallFamily.STAT),
        _spec("newfstatat", SyscallFamily.STAT, path_source=PathSource.PATH_ARG,
              path_arg_index=1),
        _spec("statx", SyscallFamily.STAT, path_source=PathSource.PATH_ARG,
              path_arg_index=1),
        _spec("access", SyscallFamily.STAT, path_source=PathSource.PATH_ARG),
        _spec("faccessat", SyscallFamily.STAT, path_source=PathSource.PATH_ARG,
              path_arg_index=1),
        _spec("getdents64", SyscallFamily.READ),
        _spec("unlink", SyscallFamily.OTHER, path_source=PathSource.PATH_ARG),
        _spec("unlinkat", SyscallFamily.OTHER, path_source=PathSource.PATH_ARG,
              path_arg_index=1),
        _spec("mkdir", SyscallFamily.OTHER, path_source=PathSource.PATH_ARG),
        _spec("rename", SyscallFamily.OTHER, path_source=PathSource.PATH_ARG),
        _spec("ftruncate", SyscallFamily.OTHER),
        _spec("fcntl", SyscallFamily.OTHER),
        _spec("flock", SyscallFamily.OTHER),
        _spec("mmap", SyscallFamily.OTHER, path_source=PathSource.NONE),
        _spec("ioctl", SyscallFamily.OTHER),
    ]
)

#: The trace set used by the paper's experiments: "variants of read,
#: write and openat" for the SSF/FPP run (Sec. V-A), plus lseek for the
#: MPI-IO run (Sec. V-B).
DEFAULT_IO_CALLS: tuple[str, ...] = (
    "read", "write", "pread64", "pwrite64",
    "readv", "writev", "preadv", "pwritev",
    "open", "openat", "close", "lseek", "fsync",
)

_FALLBACK = SyscallSpec(name="?", family=SyscallFamily.OTHER,
                        path_source=PathSource.FD_ARG)


def spec_for(call: str) -> SyscallSpec:
    """Spec for a syscall name; unknown names share one generic OTHER
    spec (named ``"?"``: path from an ``fd<path>`` first argument, no
    transfer size)."""
    return SYSCALL_CATALOG.get(call, _FALLBACK)


def is_transfer_call(call: str) -> bool:
    """True iff the return value of ``call`` is a byte transfer size."""
    spec = SYSCALL_CATALOG.get(call)
    return spec is not None and spec.returns_size


def transfer_direction(call: str) -> SyscallFamily | None:
    """READ/WRITE for transfer calls, None otherwise."""
    spec = SYSCALL_CATALOG.get(call)
    if spec is None or not spec.returns_size:
        return None
    return spec.family
