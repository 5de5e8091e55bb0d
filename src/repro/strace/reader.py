"""Reading trace files and directories into per-case record lists.

A *case* in the paper is "the group of events in each trace file"
(Sec. IV), identified by (cid, host, rid) from the file name. The reader
produces one :class:`TraceCase` per file: tokenize every line, merge
unfinished/resumed pairs, drop ERESTARTSYS records, and keep the result
sorted by start timestamp — the exact preprocessing Sec. III prescribes
before events enter the event-log formalism.

Since the ingestion engine landed (:mod:`repro.ingest`), both steps
stream: :func:`read_trace_file` pipes a lazy
:class:`~repro.ingest.streaming.TokenStream` straight into
:func:`~repro.strace.resume.merge_unfinished`, so the full token list
of a file never exists in memory, and :func:`read_trace_dir` can fan
the per-file work out over a process pool (``workers=``) — safe because
cases are independent by construction and the resulting case list is
ordered by file path either way.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro._util.errors import TraceParseError
from repro.strace.naming import TRACE_SUFFIX, TraceFileName, parse_trace_filename
from repro.strace.parser import ParsedRecord
from repro.strace.resume import MergeStats, merge_unfinished


@dataclass(slots=True)
class TraceCase:
    """All parsed records of one trace file, i.e. one case.

    Attributes
    ----------
    name:
        The (cid, host, rid) identity from the file name.
    records:
        Parsed records sorted by start timestamp.
    merge_stats:
        Diagnostics from the unfinished/resumed merge pass (plus the
        reader's undecodable-byte count).
    source:
        The file the case was read from (None for synthetic cases).
    """

    name: TraceFileName
    records: list[ParsedRecord]
    merge_stats: MergeStats = field(default_factory=MergeStats)
    source: Path | None = None

    @property
    def case_id(self) -> str:
        """Paper-style label, e.g. ``a9042``."""
        return self.name.case_id

    def __len__(self) -> int:
        return len(self.records)


def read_trace_file(
    path: str | os.PathLike[str],
    *,
    name: TraceFileName | None = None,
    strict: bool = True,
) -> TraceCase:
    """Read and fully parse one ``.st`` trace file, streaming.

    Parameters
    ----------
    path:
        The trace file. Its basename must follow the Fig. 1 naming
        convention unless ``name`` is supplied explicitly.
    name:
        Override the (cid, host, rid) identity (useful for files named
        outside the convention).
    strict:
        Governs both the unfinished/resumed merger (orphan *resumed*
        records raise when True) and byte-level decoding: undecodable
        bytes raise when True, and are replaced with U+FFFD, counted in
        ``merge_stats.decode_replacements`` and warned about when
        False.
    """
    # Imported here, not at module top: repro.ingest.streaming pulls in
    # the tokenizer, whose package __init__ imports this module.
    from repro.ingest.streaming import TokenStream

    file_path = Path(path)
    if name is None:
        name = parse_trace_filename(file_path.name)
    stream = TokenStream(file_path, strict=strict)
    records, stats = merge_unfinished(
        stream, path=str(file_path), strict=strict)
    stats.decode_replacements = stream.decode_replacements
    warn_decode_replacements(file_path, stats.decode_replacements)
    return TraceCase(name=name, records=records, merge_stats=stats,
                     source=file_path)


def warn_decode_replacements(path: Path, count: int) -> None:
    """Warn that lenient reading replaced ``count`` undecodable bytes
    of ``path`` (nothing when there were none)."""
    if count:
        warnings.warn(
            f"{path}: replaced {count} undecodable byte(s) with U+FFFD "
            f"— the trace is corrupt or not UTF-8",
            stacklevel=3)


def discover_trace_files(
    directory: str | os.PathLike[str],
    *,
    cids: set[str] | None = None,
    recursive: bool = False,
    allow_empty: bool = False,
    known_cases: dict[str, Path] | None = None,
) -> list[tuple[Path, TraceFileName]]:
    """Find every ``*.st`` file in a directory, deterministically.

    Files are returned sorted by path, so ingestion order — and with it
    the case layout of every downstream frame — is reproducible
    regardless of filesystem enumeration order or worker scheduling.
    ``recursive=True`` descends into nested per-host subdirectories
    (e.g. ``traces/<host>/<cid>_<host>_<rid>.st``); case identity still
    comes from the basename alone, and a duplicate case id across
    subdirectories is an error rather than a silent event merge.

    The live follower (:meth:`repro.live.engine.LiveIngest.scan`)
    shares this grammar via two knobs batch callers never set:
    ``allow_empty`` makes a directory with no matching files a normal
    result (a watcher may start before traces appear), and
    ``known_cases`` (case id → path) extends duplicate detection
    across polls — a newly discovered file colliding with a case
    already followed from a *different* path is an error.

    Raises
    ------
    TraceParseError
        If the directory does not exist, contains no matching trace
        files (unless ``allow_empty``), or two files map to the same
        case.
    """
    dir_path = Path(directory)
    if not dir_path.is_dir():
        raise TraceParseError(f"not a directory: {dir_path}")
    if recursive:
        entries = sorted(dir_path.rglob(f"*{TRACE_SUFFIX}"))
    else:
        entries = sorted(dir_path.iterdir())
    found: list[tuple[Path, TraceFileName]] = []
    seen: dict[str, Path] = {}
    for entry in entries:
        if entry.suffix != TRACE_SUFFIX or not entry.is_file():
            continue
        name = parse_trace_filename(entry.name)
        if cids is not None and name.cid not in cids:
            continue
        previous = seen.get(name.case_id)
        if previous is None and known_cases is not None:
            tracked = known_cases.get(name.case_id)
            if tracked is not None and tracked != entry:
                previous = tracked
        if previous is not None:
            raise TraceParseError(
                f"duplicate case {name.case_id!r}: {previous} and {entry}")
        seen[name.case_id] = entry
        found.append((entry, name))
    if not found and not allow_empty:
        raise TraceParseError(
            f"no {TRACE_SUFFIX} trace files found in {dir_path}"
            + (f" for cids {sorted(cids)}" if cids else ""))
    return found


def read_trace_dir(
    directory: str | os.PathLike[str],
    *,
    cids: set[str] | None = None,
    strict: bool = True,
    recursive: bool = False,
    workers: int | None = None,
) -> list[TraceCase]:
    """Read every ``*.st`` file in a directory into cases.

    Files are discovered in sorted order for determinism. ``cids``
    optionally restricts to a subset of command identifiers — e.g.
    ``{"a"}`` reads only the ``ls`` run of the paper's Fig. 1 example.
    ``recursive`` descends into nested subdirectories (per-host trace
    layouts).

    ``workers`` parses files concurrently on a process pool: ``None``
    auto-detects from the available CPUs, ``1`` forces the exact
    sequential path. Cases are independent per the paper's definition,
    and results are returned in the same sorted-path order either way,
    so the parallel path is observably identical to the sequential one
    (a property the ingest test suite pins down).

    Raises
    ------
    TraceParseError
        If the directory contains no matching trace files, or any file
        fails to parse.
    """
    found = discover_trace_files(directory, cids=cids, recursive=recursive)
    from repro.ingest.parallel import read_cases, resolve_workers

    return read_cases(found, strict=strict,
                      workers=resolve_workers(workers, len(found)))
