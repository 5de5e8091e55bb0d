"""Streaming decoding: trace file → tokens or columns, O(1) memory.

The original reader materialized every line of a trace file into a
``list[Token]`` before the unfinished/resumed merge — for multi-GB
traces that list dominates peak memory even though the merge itself
only ever needs the per-pid in-flight slot (Sec. III). This module
replaces the list with two streaming routes over one line decoder::

    open(file) → LineDecoder (split, decode, parse or classify)
               → merge_unfinished → records          (record route)
    open(file) → LineDecoder → CaseColumnBuilder → CaseColumns
                                                     (column route)

:class:`LineDecoder` is the one line decoder of the package: batch
reading and the live follower (:class:`~repro.live.tail.FileTail`) both
push a file's bytes through it. A complete syscall line of the common
shape leaves it already parsed (the fast path of
:func:`~repro.strace.parser.parse_complete_line`); every other line is
classified from its header alone where the header has the common
shape (:func:`~repro.strace.tokenizer.classify_line`), else by the
reference :func:`~repro.strace.tokenizer.tokenize_line`, and parsed by
the merger. :class:`TokenStream` is the file-side half of the record
route: it opens the trace lazily, feeds it through a decoder and
yields :class:`~repro.strace.tokenizer.Token` objects one at a time.
The merger (:func:`~repro.strace.resume.merge_unfinished`) consumes any
token iterable, so the two halves compose without an intermediate list.

:class:`CaseColumnBuilder` is the batch column route
(:func:`read_case_columns`, behind ``strace:`` and ``sim:`` ingestion
at any worker count): complete lines of the common shape go from the
decoder's text straight into per-case column arrays, and only the
other lines become tokens for the one merger. The record route stays
the public ``TraceCase`` API, the live route and the reference the
column route is tested against.

Decoding is done from bytes so that undecodable input is *diagnosed*
instead of silently smoothed over: the old text-mode
``errors="replace"`` swallowed bad bytes with no trace. A
:class:`TokenStream` counts every replacement character it has to
introduce (exposed as :attr:`TokenStream.decode_replacements`, surfaced
as ``MergeStats.decode_replacements`` by the reader) and, under
``strict=True``, raises :class:`~repro._util.errors.TraceParseError` at
the offending line instead of continuing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro._util.errors import TraceParseError
from repro.core.frame import MISSING, localize_codes
from repro.ingest.parallel import CaseColumns
from repro.strace.naming import parse_trace_filename
from repro.strace.parser import (
    finish_fields,
    line_fields,
    parse_complete_line,
)
from repro.strace.resume import RESTART_ERRNOS, IncrementalMerger
from repro.strace.syscalls import SyscallSpec, spec_for
from repro.strace.tokenizer import Token, classify_line, tokenize_line

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.strace.naming import TraceFileName

#: The replacement character produced by ``errors="replace"`` decoding.
REPLACEMENT_CHAR = "�"

#: Read granularity of the chunked line splitter.
_CHUNK_BYTES = 1 << 16


def decode_trace_line(raw: bytes, *, strict: bool,
                      path: str | None = None,
                      lineno: int | None = None) -> tuple[str, int]:
    """Decode one raw trace line, diagnosing undecodable bytes.

    Returns ``(text, replacements)`` where ``replacements`` counts the
    U+FFFD characters *introduced* by lenient decoding (a line may
    legitimately contain U+FFFD already). Under ``strict=True`` an
    undecodable line raises :class:`TraceParseError` instead. Run by
    :class:`LineDecoder` for batch and live reading alike.
    """
    try:
        return raw.decode("utf-8"), 0
    except UnicodeDecodeError:
        text = raw.decode("utf-8", errors="replace")
        replaced = max(
            text.count(REPLACEMENT_CHAR)
            - raw.count("\N{REPLACEMENT CHARACTER}".encode()),
            1)
        if strict:
            raise TraceParseError(
                f"{replaced} undecodable byte(s); the trace is "
                f"corrupt or not UTF-8 — pass strict=False "
                f"(CLI: --lenient) to continue with U+FFFD "
                f"replacements",
                path=path, lineno=lineno, line=text) from None
        return text, replaced


class LineDecoder:
    """The one strace line decoder: raw bytes → :class:`Token` objects.

    Both the batch :class:`TokenStream` and the live
    :class:`~repro.live.tail.FileTail` feed it the bytes of one trace
    file, in chunks of any size, and get back the tokens of the lines
    those bytes complete. Per line it:

    1. splits on the universal-newline terminators ``\\r\\n``, ``\\r``,
       ``\\n`` (:attr:`carry` holds an unterminated trailing line, and
       a trailing ``\\r`` whose ``\\n`` may start the next chunk);
    2. decodes the bytes with :func:`decode_trace_line`, counting
       U+FFFD replacements in :attr:`decode_replacements`;
    3. skips blank lines, then tries the fast path
       (:func:`~repro.strace.parser.parse_complete_line`), which turns
       a complete syscall line of the simple shape into a token with
       its parsed record attached, and otherwise classifies the line
       (:meth:`classify`: from the header alone when it has the common
       shape, else with :func:`~repro.strace.tokenizer.tokenize_line`;
       the merger parses the body later).

    The line shape alone picks the path, so the output — tokens,
    records, errors — is the reference path's either way.
    :class:`CaseColumnBuilder` runs steps 1–2 through :meth:`split`
    and :meth:`texts` and its own fast path before :meth:`classify`.
    :attr:`lineno` counts every line decoded so far, blank ones
    included, and rides on each token for error messages.
    """

    __slots__ = ("path", "strict", "default_pid", "carry", "lineno",
                 "decode_replacements")

    def __init__(self, path: str | None = None, *, strict: bool = True,
                 default_pid: int = 0) -> None:
        self.path = path
        self.strict = strict
        self.default_pid = default_pid
        self.carry = b""
        self.lineno = 0
        self.decode_replacements = 0

    def split(self, data: bytes) -> list[bytes]:
        """The raw lines that ``data`` completes, terminators stripped;
        the unterminated rest becomes the new :attr:`carry`."""
        data = self.carry + data
        # Hold back a trailing '\r': it may pair with a '\n' that
        # starts the next chunk.
        if data.endswith(b"\r"):
            data, hold = data[:-1], b"\r"
        else:
            hold = b""
        # bytes.splitlines() splits on exactly the three terminators;
        # splitting before decoding is safe for UTF-8 because the
        # 0x0A/0x0D bytes never occur inside a multi-byte sequence.
        pieces = data.splitlines()
        if data.endswith(b"\n") or not pieces:
            self.carry = hold
        else:
            self.carry = pieces.pop() + hold
        return pieces

    def flush(self) -> list[bytes]:
        """End of input: the carry as a last raw line, if any."""
        carry, self.carry = self.carry, b""
        if carry.endswith(b"\r"):  # lone '\r' at EOF terminates the line
            carry = carry[:-1]
        return [carry] if carry else []

    def feed(self, data: bytes) -> Iterator[Token]:
        """Tokens of the lines ``data`` completes, decoded lazily."""
        return self._decode(self.split(data))

    def finish(self) -> Iterator[Token]:
        """Tokens of the unterminated last line, if any."""
        return self._decode(self.flush())

    def texts(self, lines: list[bytes]) -> Iterator[tuple[str, int]]:
        """Step 2 and the blank skip of step 3: ``(text, lineno)`` of
        each non-blank raw line, for :meth:`feed` and
        :class:`CaseColumnBuilder` alike."""
        path, strict = self.path, self.strict
        for raw in lines:
            self.lineno += 1
            lineno = self.lineno
            text, replaced = decode_trace_line(
                raw, strict=strict, path=path, lineno=lineno)
            self.decode_replacements += replaced
            if text.strip():
                yield text, lineno

    def classify(self, text: str, lineno: int) -> Token:
        """The token of a line no record fast path took: the
        header-only fast classification, else the reference
        :func:`~repro.strace.tokenizer.tokenize_line`."""
        return classify_line(text, self.default_pid, lineno) \
            or tokenize_line(text, path=self.path, lineno=lineno,
                             default_pid=self.default_pid)

    def _decode(self, lines: list[bytes]) -> Iterator[Token]:
        path, default_pid = self.path, self.default_pid
        for text, lineno in self.texts(lines):
            yield parse_complete_line(text, default_pid, lineno, path) \
                or self.classify(text, lineno)


class CaseColumnBuilder:
    """Strace bytes of one file straight to its :class:`CaseColumns`.

    The batch column route. It feeds a :class:`LineDecoder` and, per
    decoded line:

    - a complete syscall line of the common shape
      (:func:`~repro.strace.parser.line_fields`) appends its pid,
      start, call, fp, size and dur to the columns directly — no
      :class:`Token`, :class:`~repro.strace.parser.ParsedRecord` or
      ``TraceCase``; call names and paths are interned once per file,
      and ``fp``/``size`` come from the shared finisher
      (:func:`~repro.strace.parser.finish_fields`);
    - every other line, and a complete call with a restart errno, goes
      to the one :class:`~repro.strace.resume.IncrementalMerger`
      (:meth:`~repro.strace.resume.IncrementalMerger.complete`), and a
      record it completes is appended at its completion position.

    :meth:`finish` sorts the rows stably by start and re-codes
    ``call``/``fp`` in first-occurrence order, which reproduces
    ``case_to_columns(read_trace_file(...))`` byte for byte: the
    record route's merger emits records in (start, completion) order
    too.
    """

    __slots__ = ("decoder", "merger", "_rows", "_specs", "_paths")

    def __init__(self, path: str | None = None, *, strict: bool = True,
                 default_pid: int = 0) -> None:
        self.decoder = LineDecoder(path, strict=strict,
                                   default_pid=default_pid)
        self.merger = IncrementalMerger(path=path, strict=strict)
        #: Six ints per record: pid, start, dur, size, call, fp.
        self._rows: list[int] = []
        #: call name → (local code, spec); path → local code. Codes
        #: count up in insertion order, so the keys are the pools.
        self._specs: dict[str, tuple[int, SyscallSpec]] = {}
        self._paths: dict[str, int] = {}

    def feed(self, data: bytes) -> None:
        """Add the lines ``data`` completes."""
        self._add(self.decoder.split(data))

    def finish(self, name: "TraceFileName") -> CaseColumns:
        """End of input: the case's columns, named ``name``."""
        self._add(self.decoder.flush())
        self.merger.orphan_pending()
        stats = self.merger.stats
        stats.decode_replacements = self.decoder.decode_replacements
        table = np.array(self._rows, dtype=np.int64).reshape(-1, 6)
        start = table[:, 1]
        calls, paths = list(self._specs), list(self._paths)
        if (start[1:] < start[:-1]).any():
            table = table[np.argsort(start, kind="stable")]
            call, calls = localize_codes(table[:, 4], calls.__getitem__)
            fp, paths = localize_codes(table[:, 5], paths.__getitem__)
        else:  # already in order, so interned in first-occurrence order
            call = table[:, 4].astype(np.int32)
            fp = table[:, 5].astype(np.int32)
        pid, start, dur, size = (np.ascontiguousarray(table[:, i])
                                 for i in range(4))
        return CaseColumns(name=name, pid=pid, start=start, dur=dur,
                           size=size, call=call, fp=fp, calls=calls,
                           paths=paths, merge_stats=stats)

    def _add(self, lines: list[bytes]) -> None:
        decoder, merger = self.decoder, self.merger
        path, default_pid = decoder.path, decoder.default_pid
        specs, paths = self._specs, self._paths
        extend = self._rows.extend
        for text, lineno in decoder.texts(lines):
            fields = line_fields(text, default_pid)
            if fields is not None and fields[7] not in RESTART_ERRNOS:
                pid, start_us, _, call, arg_text, retval, ret_path, \
                    errno, dur_us = fields
                entry = specs.get(call) or self._intern_call(call)
                fp, size = finish_fields(
                    entry[1], arg_text.split(","), retval, ret_path, errno,
                    pid, dur_us, path=path, lineno=lineno)
            else:
                record = merger.complete(decoder.classify(text, lineno))
                if record is None:
                    continue
                pid, start_us, call, fp, size, dur_us = (
                    record.pid, record.start_us, record.call, record.fp,
                    record.size, record.dur_us)
                entry = specs.get(call) or self._intern_call(call)
            if fp is None:
                fp_code = MISSING
            else:
                fp_code = paths.get(fp)
                if fp_code is None:
                    fp_code = paths[fp] = len(paths)
            extend((pid, start_us, MISSING if dur_us is None else dur_us,
                    MISSING if size is None else size, entry[0], fp_code))

    def _intern_call(self, call: str) -> tuple[int, SyscallSpec]:
        entry = self._specs[call] = (len(self._specs), spec_for(call))
        return entry


def read_case_columns(path: str | os.PathLike[str], *,
                      name: "TraceFileName | None" = None,
                      strict: bool = True) -> CaseColumns:
    """:func:`~repro.strace.reader.read_trace_file` +
    :func:`~repro.ingest.parallel.case_to_columns` of one ``.st``
    file, through a :class:`CaseColumnBuilder`: the same columns,
    merge statistics, errors and undecodable-byte warning."""
    from repro.strace.reader import warn_decode_replacements

    file_path = Path(path)
    if name is None:
        name = parse_trace_filename(file_path.name)
    builder = CaseColumnBuilder(str(file_path), strict=strict)
    with open(file_path, "rb") as handle:
        while chunk := handle.read(_CHUNK_BYTES):
            builder.feed(chunk)
    columns = builder.finish(name)
    warn_decode_replacements(file_path,
                             columns.merge_stats.decode_replacements)
    return columns


class TokenStream:
    """A restartable iterable of the tokens of one trace file.

    Each iteration re-opens the file and streams it front to back;
    nothing beyond the current line is held in memory. Diagnostic
    counters (:attr:`decode_replacements`, :attr:`n_lines`) reflect the
    most recent (possibly in-progress) iteration.

    Parameters
    ----------
    path:
        The trace file to stream.
    strict:
        If True, lines containing bytes that are not valid UTF-8 raise
        :class:`TraceParseError`; if False they are decoded with
        U+FFFD replacements, which are counted.
    default_pid:
        Forwarded to the :class:`LineDecoder`, for pid-less traces.
    """

    __slots__ = ("path", "strict", "default_pid", "_decoder")

    def __init__(self, path: str | os.PathLike[str], *,
                 strict: bool = True, default_pid: int = 0) -> None:
        self.path = Path(path)
        self.strict = strict
        self.default_pid = default_pid
        self._decoder: LineDecoder | None = None

    @property
    def decode_replacements(self) -> int:
        """U+FFFD replacements introduced so far by lenient decoding."""
        return self._decoder.decode_replacements if self._decoder else 0

    @property
    def n_lines(self) -> int:
        """Lines read so far, blank ones included."""
        return self._decoder.lineno if self._decoder else 0

    def __iter__(self) -> Iterator[Token]:
        decoder = self._decoder = LineDecoder(
            str(self.path), strict=self.strict,
            default_pid=self.default_pid)
        with open(self.path, "rb") as handle:
            while chunk := handle.read(_CHUNK_BYTES):
                yield from decoder.feed(chunk)
        yield from decoder.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenStream({str(self.path)!r})"
