"""Argument-level parsing of strace syscall records.

Turns a classified syscall body (see :mod:`repro.strace.tokenizer`) into
a :class:`ParsedRecord` carrying the event attributes of Sec. III:

- **call** — the syscall name;
- **fp** — the accessed file path, recovered from the ``-y`` descriptor
  annotation (``3</etc/passwd>``) on the appropriate argument, or from
  the annotated *return value* for ``open``/``openat`` (strace annotates
  the descriptor it returns), or from a quoted path argument as a
  fallback when ``-y`` was not used;
- **size** — the transfer size, i.e. the return value, "parsed only for
  the variants of read and write system calls" (Sec. III item 6);
- **dur_us** — the ``-T`` duration;
- plus the raw return value, errno name, and the requested byte count
  (the last integer argument of transfer calls, which the paper notes
  "may differ from the actual number of bytes transferred").

strace argument lists contain C strings with escapes
(``"total 40\\n"``, possibly abbreviated as ``"total 4"...``),
struct/array literals (``{st_mode=...}``, ``[{iov_base=...}]``) and the
``fd</path>`` annotations themselves, so a naive ``split(',')`` is wrong
in general. Splitting works in two steps:

1. **The shape test.** One precompiled regex (``_ARGS``) recognises the
   common argument list: brackets only as depth-1 ``<...>``
   annotations, quotes only around strings, and neither holding a
   comma, quote, bracket or (in a string) a backslash. On such a list a
   plain ``split(",")`` finds exactly the commas the scanner would, so
   :func:`split_args` splits it directly. The line decoder
   (:class:`repro.ingest.streaming.LineDecoder`) goes one step further:
   one ``fullmatch`` of that shape plus the header and the return
   clause (``_LINE_RE``, split into fields by :func:`line_fields`)
   takes a whole complete syscall line without the tokenizer, and its
   body part (``_BODY_RE``, :func:`parse_simple_body`) takes the joined
   halves of a split call before the scanner.
2. **The reference scanner.** Every other list goes through a character
   scan that tracks quote state and ``([{<`` nesting to find the
   top-level commas and the closing parenthesis. It is the only
   implementation of the general argument grammar and the contract:
   the shape test accepts only input on which both agree, and whatever
   it refuses — errors included — is decided here (pinned by a
   differential hypothesis property in the test suite).

Every route ends in one fp/size finisher, :func:`finish_fields`: the
records of :func:`parse_body`, :func:`parse_simple_body` and
:func:`parse_complete_line`, and the batch column builder
(:class:`repro.ingest.streaming.CaseColumnBuilder`), which appends the
fields of :func:`line_fields` straight to its columns and so never
computes ``requested`` or ``args``. The finisher also rejects a pid,
size or duration that does not fit the int64 columns of an event log.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from repro._util.errors import TraceParseError
from repro._util.timefmt import parse_duration, wallclock_us
from repro.strace.syscalls import PathSource, SyscallSpec, spec_for
from repro.strace.tokenizer import (
    _SYSCALL_START_RE,
    SIMPLE_HEADER,
    RecordKind,
    Token,
    tokenize_line,
)

_OPENERS = {"(": ")", "[": "]", "{": "}", "<": ">"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}

#: A run of octal escapes (``\303\251``) or one simple C escape.
_ESCAPE_RE = re.compile(r'((?:\\[0-7]{1,3})+)|\\([\\"nt])')
_SIMPLE_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}

#: Text holding none of the characters the scanner treats specially.
_PLAIN = r'[^"()\[\]{}<>]*'
#: The inside of a shape-test string or annotation.
_INNER = r'[^"\\,()\[\]{}<>]*'
#: An argument list (up to its closing parenthesis) that a plain
#: ``split(",")`` splits exactly as :func:`split_args`' scanner does.
#: Unrolled (plain, then special + plain repeated) so a failing match
#: stays linear.
_ARGS = (_PLAIN + r'(?:(?:"' + _INNER + r'"|<' + _INNER + r'>)'
         + _PLAIN + r')*')
_ARGS_RE = re.compile(_ARGS + r"\)")
#: A complete syscall body of the simple shape: a call over an
#: ``_ARGS`` list and the return clause of ``_RET_RE`` with plain
#: spaces and ASCII digits.
_BODY = (r"(?P<call>[a-zA-Z_][a-zA-Z0-9_]*)\((?P<args>" + _ARGS
         + r")\) *= +(?P<val>-?[0-9]+|\?|0x[0-9a-fA-F]+)"
         r"(?:<(?P<retpath>[^>]*)>)?"
         r"(?: +(?P<errno>[A-Z][A-Z0-9_]+) +\([^)]*\))?"
         r"(?: +\([^)]*\))?"
         r" *(?:<(?P<dur_s>[0-9]+)\.(?P<dur_us>[0-9]{6})>)? *")
#: The one complete-line shape: the tokenizer's simple header (``-tt``
#: stamps only) and a body of the simple shape. Anything else is left
#: to the reference path.
_LINE_RE = re.compile(SIMPLE_HEADER + r"(?P<body>" + _BODY + r")")
#: The body part of ``_LINE_RE``, for the joined halves of a split call.
_BODY_RE = re.compile(_BODY)
#: pid, size and dur end up in int64 columns.
_INT64_LIMIT = 1 << 63
_UNFINISHED = "<unfinished ...>"
_RET_RE = re.compile(
    r"""^=\s+
        (?P<val>-?\d+|\?|0x[0-9a-fA-F]+)          # numeric / ? / hex
        (?:<(?P<retpath>[^>]*)>)?                  # -y annotation on fds
        (?:\s+(?P<errno>[A-Z][A-Z0-9_]+)\s+\([^)]*\))?  # ENOENT (No such..)
        (?:\s+\((?P<flagdesc>[^)]*)\))?            # e.g. (Timeout)
        \s*
        (?:(?P<dur><\d+\.\d{6}>))?                 # -T duration
        \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class ParsedRecord:
    """One fully parsed syscall record (possibly a merged resumed pair).

    ``fp`` is ``None`` when the call carries no path (or ``-y`` was off
    and no quoted path argument exists); ``size`` is ``None`` for calls
    that are not read/write variants or that failed.
    """

    pid: int
    start_us: int
    call: str
    fp: str | None
    size: int | None
    dur_us: int | None
    retval: int | None
    errno: str | None
    requested: int | None
    args: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True iff the call did not return an error."""
        return self.errno is None


def split_args(text: str, *, path: str | None = None,
               lineno: int | None = None) -> tuple[list[str], int]:
    """Split ``text`` (starting right after the opening ``(``) into
    top-level arguments.

    Returns ``(args, end_index)`` where ``end_index`` points at the
    closing ``)`` in ``text``. Quote-aware (double quotes, backslash
    escapes) and bracket-aware (``()[]{}<>``). A list of the simple
    shape (see the module docstring) is split with ``str.split``;
    everything else goes through the character scan.
    """
    simple = _ARGS_RE.match(text)
    if simple is not None:
        end = simple.end() - 1
        return _split_simple(text[:end]), end
    args: list[str] = []
    depth = 0
    in_string = False
    escaped = False
    current_start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            i += 1
            continue
        if ch in _OPENERS:
            depth += 1
            i += 1
            continue
        if ch in _CLOSERS:
            if ch == ")" and depth == 0:
                arg = text[current_start:i].strip()
                if arg:
                    args.append(arg)
                return args, i
            depth -= 1
            if depth < 0:
                raise TraceParseError(
                    f"unbalanced {ch!r} in argument list: {text[:80]!r}",
                    path=path, lineno=lineno)
            i += 1
            continue
        if ch == "," and depth == 0:
            args.append(text[current_start:i].strip())
            current_start = i + 1
        i += 1
    raise TraceParseError(
        f"unterminated argument list: {text[:80]!r}",
        path=path, lineno=lineno)


def _split_simple(text: str) -> list[str]:
    """Split a shape-tested argument list; like the scanner, an empty
    last argument (``f()``, ``f(1, )``) is dropped."""
    args = [arg.strip() for arg in text.split(",")]
    if not args[-1]:
        args.pop()
    return args


def _retval(raw: str) -> int | None:
    if raw == "?":
        return None
    if raw.startswith("0x"):
        return int(raw, 16)
    return int(raw)


def _parse_retval(text: str) -> tuple[int | None, str | None, str | None,
                                      int | None]:
    """Parse the ``= RET ... <dur>`` tail.

    Returns ``(retval, ret_path, errno, dur_us)``.
    """
    match = _RET_RE.match(text.strip())
    if match is None:
        raise TraceParseError(f"unparseable return clause: {text[:80]!r}")
    retval = _retval(match.group("val"))
    ret_path = match.group("retpath")
    errno = match.group("errno")
    dur_text = match.group("dur")
    dur_us = parse_duration(dur_text) if dur_text else None
    return retval, ret_path, errno, dur_us


def _unescape(match: re.Match) -> str:
    run = match.group(1)
    if run is None:
        return _SIMPLE_ESCAPES[match.group(2)]
    try:
        return bytes(int(code, 8) for code in run.split("\\")[1:]) \
            .decode("utf-8")
    except (ValueError, UnicodeDecodeError):  # > 0o377, or not UTF-8
        return run


def _strip_quotes(arg: str) -> str | None:
    """Unquote a C-string argument; None if it is not a quoted string.

    Handles strace's abbreviation suffix (``"abc"...``). Escapes are
    resolved for the common cases: ``\\n``, ``\\t``, ``\\"``,
    ``\\\\`` and runs of octal escapes, which strace writes for the
    bytes of non-ASCII text and decode as UTF-8 (``"caf\\303\\251"``
    → ``café``). An octal run that is not valid UTF-8 keeps its
    escaped text.
    """
    if not arg.startswith('"'):
        return None
    end = arg.rfind('"')
    if end == 0:
        return None
    inner = arg[1:end]
    if "\\" not in inner:
        return inner
    return _ESCAPE_RE.sub(_unescape, inner)


def _extract_fp(spec: SyscallSpec, args: Sequence[str],
                ret_path: str | None) -> str | None:
    """Recover the ``fp`` attribute per the syscall's :class:`PathSource`."""
    source = spec.path_source
    if source is PathSource.NONE:
        return None
    if source is PathSource.RET_FD:
        if ret_path:
            return ret_path
        # Fallback without -y: first quoted argument is the path
        # (openat's arg 0 is AT_FDCWD / a dirfd).
        for arg in args:
            quoted = _strip_quotes(arg.strip())
            if quoted is not None:
                return quoted
        return None
    if source is PathSource.PATH_ARG:
        if spec.path_arg_index < len(args):
            return _strip_quotes(args[spec.path_arg_index].strip())
        return None
    # FD_ARG: ``3</path>``, the path being all between the first '<'
    # and the closing '>'.
    if spec.path_arg_index < len(args):
        fd, bracket, rest = args[spec.path_arg_index].strip().partition("<")
        if bracket and fd.isdecimal() and rest.endswith(">"):
            return rest[:-1]
    return None


def _extract_requested(spec: SyscallSpec,
                       args: tuple[str, ...]) -> int | None:
    """Requested byte count from the count argument of a transfer call
    (``read(fd, buf, 832)`` → 832; ``pread64(fd, buf, 832, off)`` →
    832, not the offset). Vectored variants carry no flat count."""
    index = spec.requested_arg_index
    if index is None or index >= len(args):
        return None
    arg = args[index]
    # isdecimal() accepts exactly what ``\d+`` matches (Unicode Nd).
    return int(arg) if arg.isdecimal() else None


def finish_fields(spec: SyscallSpec, args: Sequence[str],
                  retval: int | None, ret_path: str | None,
                  errno: str | None, pid: int, dur_us: int | None, *,
                  path: str | None = None,
                  lineno: int | None = None,
                  ) -> tuple[str | None, int | None]:
    """``(fp, size)`` of one record: the fp/size finisher of every
    parse route — the record routes and the column builder
    (:class:`~repro.ingest.streaming.CaseColumnBuilder`) alike.

    ``args`` may be stripped arguments or the raw pieces of a
    ``split(",")`` of a simple-shape list (the builder's, which never
    strips the arguments it does not use): an argument is stripped
    here, and an empty one carries no path either way.

    Raises :class:`TraceParseError` naming ``path:lineno`` when pid,
    size or dur does not fit the int64 columns of an event log.
    """
    size = None
    if spec.returns_size and retval is not None and retval >= 0 \
            and errno is None:
        size = retval
    if pid >= _INT64_LIMIT or (size or 0) >= _INT64_LIMIT \
            or (dur_us or 0) >= _INT64_LIMIT:
        for field, value in (("pid", pid), ("size", size),
                             ("dur", dur_us)):
            if (value or 0) >= _INT64_LIMIT:
                raise TraceParseError(
                    f"{field} {value} does not fit a signed 64-bit "
                    f"column", path=path, lineno=lineno)
    return _extract_fp(spec, args, ret_path), size


def _build_record(pid: int, start_us: int, call: str,
                  args: tuple[str, ...], retval: int | None,
                  ret_path: str | None, errno: str | None,
                  dur_us: int | None, path: str | None,
                  lineno: int | None) -> ParsedRecord:
    """The record every parse route produces from the split fields."""
    spec = spec_for(call)
    fp, size = finish_fields(spec, args, retval, ret_path, errno, pid,
                             dur_us, path=path, lineno=lineno)
    return ParsedRecord(pid, start_us, call, fp, size, dur_us, retval,
                        errno, _extract_requested(spec, args), args)


def _duration(seconds: str | None, micros: str | None) -> int | None:
    """µs of the ``-T`` fields of a shape match (``micros`` has six
    digits, so the digits read as one number); None when absent."""
    return None if seconds is None else int(seconds + micros)


def parse_body(pid: int, start_us: int, body: str, *,
               path: str | None = None,
               lineno: int | None = None) -> ParsedRecord:
    """Parse a complete syscall body (``name(args) = ret <dur>``)."""
    match = _SYSCALL_START_RE.match(body)
    if match is None:
        raise TraceParseError(
            f"not a syscall body: {body[:80]!r}", path=path, lineno=lineno)
    rest = body[match.end():]
    arg_list, close_idx = split_args(rest, path=path, lineno=lineno)
    tail = rest[close_idx + 1:].strip()
    try:
        retval, ret_path, errno, dur_us = _parse_retval(tail)
    except TraceParseError as exc:
        raise TraceParseError(
            str(exc), path=path, lineno=lineno, line=body) from exc
    return _build_record(pid, start_us, match.group(0)[:-1],
                         tuple(arg_list), retval, ret_path, errno, dur_us,
                         path, lineno)


def parse_simple_body(pid: int, start_us: int, body: str, *,
                      path: str | None = None,
                      lineno: int | None = None) -> ParsedRecord | None:
    """:func:`parse_body` by one ``fullmatch`` of the body part of the
    complete-line shape; ``None`` when the body is not of that shape.

    The merger tries it on the joined halves of a split call before
    the scanner.
    """
    match = _BODY_RE.fullmatch(body)
    if match is None:
        return None
    call, arg_text, val, ret_path, errno, dur_s, dur_us = match.groups()
    return _build_record(pid, start_us, call,
                         tuple(_split_simple(arg_text)), _retval(val),
                         ret_path, errno, _duration(dur_s, dur_us), path,
                         lineno)


def line_fields(line: str, default_pid: int = 0) -> tuple | None:
    """The split fields of one complete syscall line of the simple
    shape (see the module docstring), by one ``fullmatch``:
    ``(pid, start_us, body, call, arg_text, retval, ret_path, errno,
    dur_us)``, where ``arg_text`` is the unsplit argument list.

    Returns ``None`` for any other line — unfinished, resumed, signal
    and exit records, ``-ttt`` stamps, nested or escaped arguments, an
    out-of-range clock — which the reference path then decides, errors
    included. Shared by the decoder's two fast paths:
    :func:`parse_complete_line` and the column builder.
    """
    match = _LINE_RE.fullmatch(line)
    if match is None:
        return None
    (pid, hms, micros, body, call, arg_text, val, ret_path, errno, dur_s,
     dur_us) = match.groups()
    start_us = wallclock_us(hms, micros)
    if start_us is None or body.endswith(_UNFINISHED):
        return None
    return (int(pid) if pid is not None else default_pid, start_us, body,
            call, arg_text, _retval(val), ret_path, errno,
            _duration(dur_s, dur_us))


def parse_complete_line(line: str, default_pid: int = 0,
                        lineno: int | None = None,
                        path: str | None = None) -> Token | None:
    """The line decoder's record fast path for one complete syscall
    line: the SYSCALL :class:`Token`, with its :class:`ParsedRecord`
    attached, that :func:`tokenize_line` plus :func:`parse_body` would
    produce, or ``None`` when :func:`line_fields` refuses the line.
    """
    fields = line_fields(line, default_pid)
    if fields is None:
        return None
    pid, start_us, body, call, arg_text, retval, ret_path, errno, \
        dur_us = fields
    record = _build_record(pid, start_us, call,
                           tuple(_split_simple(arg_text)), retval,
                           ret_path, errno, dur_us, path, lineno)
    return Token(pid, start_us, RecordKind.SYSCALL, body, lineno, record)


def parse_line(line: str, *, path: str | None = None,
               lineno: int | None = None) -> ParsedRecord | None:
    """Tokenize + parse one line; returns ``None`` for non-syscall records.

    Convenience for tests and one-off use. Production reading goes
    through :mod:`repro.strace.reader`, which also performs
    unfinished/resumed merging across lines.
    """
    token = tokenize_line(line, path=path, lineno=lineno)
    if token.kind is not RecordKind.SYSCALL:
        return None
    return parse_body(token.pid, token.start_us, token.body,
                      path=path, lineno=lineno)
