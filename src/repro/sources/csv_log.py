"""``csv:`` — delimited-text event-logs (the tool-agnostic interchange
format).

Sec. II of the paper: "The methodology by itself does not depend on
strace and can be applied over data instrumented by one of the other
existing tools." Any tracer that can dump events with the Eq. 1
attributes feeds the pipeline through this source.

Column schema
-------------
A header row naming (a superset of) the canonical columns, then one
row per event:

======  ========  ==================================================
column  type      meaning (Eq. 1 attribute)
======  ========  ==================================================
cid     str       command identifier (required, non-empty)
host    str       host name (required, non-empty)
rid     int       launcher process id from the trace-file name
pid     int       pid of the traced process
call    str       syscall name
start   int       entry timestamp, integer microseconds
dur     int       duration in microseconds; empty = unknown
fp      str       file path; empty = the event carries no path
size    int       transferred bytes; empty = not a transfer
======  ========  ==================================================

Extra columns are ignored so exports from richer tools load unchanged.
Cases are formed exactly as in Sec. IV: one case per distinct
(cid, rid), events ordered by start. The format round-trips:
``read_csv_log(write_csv_log(log))`` reconstructs the same events
(property-tested), and the CLI pair ``export-csv`` / ``csv:`` source
is byte-stable: export → load → export reproduces the file.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro._util.errors import SourceError, TraceParseError
from repro.core.eventlog import EventLog
from repro.core.frame import EventFrame, FramePools
from repro.sources.base import SourceOptions, TraceSource, iter_cases_of_log

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest.parallel import CaseColumns

#: Required columns, in canonical order (Eq. 1).
CSV_COLUMNS: tuple[str, ...] = (
    "cid", "host", "rid", "pid", "call", "start", "dur", "fp", "size")

#: Spellings accepted for the ``?delimiter=`` URI option.
_DELIMITER_NAMES = {"tab": "\t", "comma": ",", "semicolon": ";"}


def _parse_int(value: str, column: str, lineno: int,
               *, optional: bool = False) -> int:
    if value == "" and optional:
        return -1
    try:
        return int(value)
    except ValueError:
        raise TraceParseError(
            f"line {lineno}: column {column!r} is not an integer: "
            f"{value!r}") from None


def read_csv_log(path: str | os.PathLike[str], *,
                 delimiter: str = ",") -> EventLog:
    """Load an event-log from a CSV file.

    Raises :class:`TraceParseError` on missing required columns or
    malformed values; empty ``fp``/``size``/``dur`` become missing.
    """
    file_path = Path(path)
    pools = FramePools()
    columns: dict[str, list[int]] = {name: [] for name in (
        "case", "cid", "host", "rid", "pid", "call", "start", "dur",
        "fp", "size")}
    with open(file_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None:
            raise TraceParseError(f"{file_path}: empty CSV")
        missing = set(CSV_COLUMNS) - set(reader.fieldnames)
        if missing:
            raise TraceParseError(
                f"{file_path}: missing columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            cid = row["cid"]
            host = row["host"]
            rid = _parse_int(row["rid"], "rid", lineno)
            if not cid or not host:
                raise TraceParseError(
                    f"line {lineno}: empty cid/host")
            columns["case"].append(pools.cases.intern(f"{cid}{rid}"))
            columns["cid"].append(pools.cids.intern(cid))
            columns["host"].append(pools.hosts.intern(host))
            columns["rid"].append(rid)
            columns["pid"].append(_parse_int(row["pid"], "pid", lineno))
            columns["call"].append(pools.calls.intern(row["call"]))
            columns["start"].append(
                _parse_int(row["start"], "start", lineno))
            columns["dur"].append(
                _parse_int(row["dur"], "dur", lineno, optional=True))
            fp = row["fp"]
            columns["fp"].append(
                pools.paths.intern(fp) if fp else -1)
            columns["size"].append(
                _parse_int(row["size"], "size", lineno, optional=True))
    n = len(columns["start"])
    frame = EventFrame(pools, {
        "case": np.array(columns["case"], dtype=np.int32),
        "cid": np.array(columns["cid"], dtype=np.int32),
        "host": np.array(columns["host"], dtype=np.int32),
        "rid": np.array(columns["rid"], dtype=np.int64),
        "pid": np.array(columns["pid"], dtype=np.int64),
        "call": np.array(columns["call"], dtype=np.int32),
        "start": np.array(columns["start"], dtype=np.int64),
        "dur": np.array(columns["dur"], dtype=np.int64),
        "fp": np.array(columns["fp"], dtype=np.int32),
        "size": np.array(columns["size"], dtype=np.int64),
        "activity": np.full(n, -1, dtype=np.int32),
    })
    return EventLog(frame)


def write_csv_log(event_log: EventLog,
                  path: str | os.PathLike[str], *,
                  delimiter: str = ",") -> Path:
    """Export an event-log to CSV (inverse of :func:`read_csv_log`).

    Lossless for the Eq. 1 attributes: ``read_csv_log(write_csv_log(x))``
    reconstructs the same events (property-tested).
    """
    file_path = Path(path)
    frame = event_log.frame
    with open(file_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(CSV_COLUMNS)
        cids = frame.decoded("cid")
        hosts = frame.decoded("host")
        calls = frame.decoded("call")
        fps = frame.decoded("fp")
        rid = frame.column("rid")
        pid = frame.column("pid")
        start = frame.column("start")
        dur = frame.column("dur")
        size = frame.column("size")
        for i in range(len(frame)):
            writer.writerow([
                cids[i], hosts[i], int(rid[i]), int(pid[i]), calls[i],
                int(start[i]),
                "" if dur[i] == -1 else int(dur[i]),
                fps[i] or "",
                "" if size[i] == -1 else int(size[i]),
            ])
    return file_path


class CsvLogSource(TraceSource):
    """A CSV event-log dump (``csv:events.csv``).

    URI options: ``?delimiter=<char>`` — a single character or one of
    the names ``tab``/``comma``/``semicolon`` (a literal tab cannot be
    typed into most shells).
    """

    scheme = "csv"

    def __init__(self, path: str | os.PathLike[str], *,
                 delimiter: str = ",",
                 cids: set[str] | None = None) -> None:
        self.path = Path(path)
        self.delimiter = delimiter
        self.cids = cids

    @classmethod
    def from_uri(cls, target: str, options: dict[str, str],
                 opts: SourceOptions) -> "CsvLogSource":
        extra = set(options) - {"delimiter"}
        if extra:
            raise SourceError(
                f"scheme 'csv' supports only ?delimiter= "
                f"(got {sorted(extra)})")
        delimiter = options.get("delimiter", ",")
        delimiter = _DELIMITER_NAMES.get(delimiter.lower(), delimiter)
        if len(delimiter) != 1:
            raise SourceError(
                f"csv delimiter must be one character or one of "
                f"{sorted(_DELIMITER_NAMES)} (got {delimiter!r})")
        return cls(target, delimiter=delimiter, cids=opts.cids)

    def describe(self) -> str:
        return f"CSV event-log {self.path}"

    def event_log(self) -> EventLog:
        log = read_csv_log(self.path, delimiter=self.delimiter)
        if self.cids is not None:
            log = log.filtered_cids(self.cids)
        return log

    def iter_cases(self) -> "Iterator[CaseColumns]":
        """Per-case columns in sorted case-id order.

        CSV is one flat file, so the log materializes first and the
        generic frame slicer (:func:`iter_cases_of_log`) re-forms the
        cases.
        """
        return iter_cases_of_log(self.event_log())
