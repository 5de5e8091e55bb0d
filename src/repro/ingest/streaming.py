"""Streaming tokenization: trace file → token generator, O(1) memory.

The original reader materialized every line of a trace file into a
``list[Token]`` before the unfinished/resumed merge — for multi-GB
traces that list dominates peak memory even though the merge itself
only ever needs the per-pid in-flight slot (Sec. III). This module
replaces the list with a generator pipeline::

    open(file) → LineDecoder (split, decode, parse or classify)
               → (merge_unfinished)

:class:`LineDecoder` is the one line decoder of the package: batch
reading and the live follower (:class:`~repro.live.tail.FileTail`) both
push a file's bytes through it. A complete syscall line of the common
shape leaves it already parsed (the fast path of
:func:`~repro.strace.parser.parse_complete_line`); every other line is
classified by :func:`~repro.strace.tokenizer.tokenize_line` and parsed
by the merger. :class:`TokenStream` is the file-side half of batch
reading: it opens the trace lazily, feeds it through a decoder and
yields :class:`~repro.strace.tokenizer.Token` objects one at a time.
The merger (:func:`~repro.strace.resume.merge_unfinished`) consumes any
token iterable, so the two halves compose without an intermediate list.

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
import re
from pathlib import Path
from typing import Iterator

from repro._util.errors import TraceParseError
from repro.strace.parser import parse_complete_line
from repro.strace.tokenizer import Token, tokenize_line

#: The replacement character produced by ``errors="replace"`` decoding.
REPLACEMENT_CHAR = "�"

#: The universal-newline terminators of the pre-streaming text reader,
#: as bytes: splitting before decoding is safe for UTF-8 because the
#: 0x0A/0x0D bytes never occur inside a multi-byte sequence.
_NEWLINE_BYTES_RE = re.compile(b"\r\n|\r|\n")

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
       with :func:`~repro.strace.tokenizer.tokenize_line` (the
       reference path: the merger parses the body later).

    The line shape alone picks the path, so the output — tokens,
    records, errors — is the reference path's either way.
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
        pieces = _NEWLINE_BYTES_RE.split(data)
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

    def _decode(self, lines: list[bytes]) -> Iterator[Token]:
        path, strict = self.path, self.strict
        default_pid = self.default_pid
        for raw in lines:
            self.lineno += 1
            lineno = self.lineno
            text, replaced = decode_trace_line(
                raw, strict=strict, path=path, lineno=lineno)
            self.decode_replacements += replaced
            if not text.strip():
                continue
            token = parse_complete_line(text, default_pid, lineno)
            if token is None:
                token = tokenize_line(text, path=path, lineno=lineno,
                                      default_pid=default_pid)
            yield token


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
