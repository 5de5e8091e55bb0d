"""``strace:`` — a directory of ``<cid>_<host>_<rid>.st`` trace files.

The paper's native input (Sec. III), wrapped over the parallel
ingestion engine (:mod:`repro.ingest`): discovery is sorted-path
deterministic, per-file parsing fans out over ``workers`` processes,
and both the streaming case iterator and the whole-log fast path are
byte-identical to the record route (``EventLog.from_cases`` over
``read_trace_dir``) — pinned by the golden-fingerprint and
equivalence suites.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.sources.base import SourceOptions, TraceSource
from repro.sources.registry import require_no_options

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.eventlog import EventLog
    from repro.ingest.parallel import CaseColumns


class StraceDirSource(TraceSource):
    """Batch ingestion of a directory of strace text files.

    The only source whose input is a set of independent files, hence
    the only one where ``workers`` buys parse overlap and where
    ``recursive`` changes discovery. It is also tailable: a growing
    directory can be followed live by :mod:`repro.live`.
    """

    scheme = "strace"
    supports_workers = True
    supports_recursive = True
    supports_strict = True
    supports_tail = True

    def __init__(self, directory: str | os.PathLike[str], *,
                 cids: set[str] | None = None,
                 strict: bool = True,
                 recursive: bool = False,
                 workers: int | None = None) -> None:
        self.directory = Path(directory)
        self.cids = cids
        self.strict = strict
        self.recursive = recursive
        self.workers = workers

    @classmethod
    def from_uri(cls, target: str, options: dict[str, str],
                 opts: SourceOptions) -> "StraceDirSource":
        require_no_options(cls.scheme, options)
        return cls(target, cids=opts.cids, strict=opts.strict,
                   recursive=opts.recursive, workers=opts.workers)

    def describe(self) -> str:
        return f"strace trace directory {self.directory}"

    def iter_cases(self) -> "Iterator[CaseColumns]":
        """Stream cases in sorted-path order, ``workers`` at a time.

        Backed by :func:`~repro.ingest.parallel.iter_case_columns`
        (bounded in-flight window), so a slow consumer — the ``.elog``
        writer — keeps memory at O(workers · case).
        """
        from repro.ingest.parallel import iter_case_columns, resolve_workers
        from repro.strace.reader import discover_trace_files

        found = discover_trace_files(self.directory, cids=self.cids,
                                     recursive=self.recursive)
        return iter_case_columns(
            found, strict=self.strict,
            workers=resolve_workers(self.workers, len(found)))

    def event_log(self) -> "EventLog":
        """The whole-log fast path (list-shaped pool map)."""
        from repro.core.eventlog import EventLog
        from repro.ingest.parallel import ingest_event_frame

        return EventLog(ingest_event_frame(
            self.directory, cids=self.cids, strict=self.strict,
            recursive=self.recursive, workers=self.workers))
