"""The line decoder's fast paths against the reference path.

:func:`~repro.strace.parser.parse_complete_line` parses a complete
syscall line of the common shape in one regex match; everything else
goes through :func:`~repro.strace.tokenizer.tokenize_line`, the merger
and :func:`~repro.strace.parser.parse_body` with its character scanner.
The scanner is the reference: on every generated line the decoder must
produce the same tokens, records and merge statistics, or raise
:class:`TraceParseError` with the same message. The generator leans
on the shapes the fast path must refuse — quoting, nesting, odd
annotations, out-of-range clocks and integers — next to the ones it
must take.

The batch column builder
(:class:`~repro.ingest.streaming.CaseColumnBuilder`) is held to the
record route the same way: per generated file, fed in random byte
slices, it must produce exactly ``case_to_columns`` over
``merge_unfinished`` of the decoder's tokens, or the same error.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro._util.errors import TraceParseError
from repro._util.timefmt import format_wallclock
from repro.ingest import streaming
from repro.ingest.parallel import case_to_columns
from repro.ingest.streaming import (
    CaseColumnBuilder,
    LineDecoder,
    TokenStream,
    read_case_columns,
)
from repro.live.tail import FileTail
from repro.strace import resume
from repro.strace.naming import TraceFileName
from repro.strace.parser import (
    line_fields,
    parse_body,
    parse_complete_line,
    parse_simple_body,
)
from repro.strace.reader import TraceCase, read_trace_file
from repro.strace.resume import _join_bodies, merge_unfinished
from repro.strace.tokenizer import (
    RecordKind,
    classify_line,
    resumed_call_name,
    tokenize_line,
)

PATH = "dir/a_node01_1.st"
NAME = TraceFileName("a", "node01", 1)
#: 20 digits: past the int64 columns of an event log.
HUGE = "99999999999999999999"

# -- line generator ----------------------------------------------------------

#: Characters of paths and strings: the plain ones the fast path
#: takes, and the ones that must send a line to the scanner.
_PLAIN_CHARS = list("/abc.-_ 09é")
_PATH_CHARS = st.sampled_from(_PLAIN_CHARS + [",", '"', ")", "(", "<", ">",
                                              "\\"])
_STRING_CHARS = st.sampled_from(_PLAIN_CHARS + [",", ")", "(", "[", "{",
                                                "<", ">"])

calls = st.sampled_from(["read", "write", "pread64", "openat", "close",
                         "stat", "lseek", "readv", "mmap", "frobnicate"])


def _digits(low: int, high: int, width: int):
    return st.integers(low, high).map(lambda v: f"{v:0{width}d}")


@st.composite
def timestamps(draw) -> str:
    if draw(st.integers(0, 9)) == 0:  # -ttt epoch seconds
        return f"{draw(_digits(10**9, 10**10 - 1, 10))}." \
               f"{draw(_digits(0, 999_999, 6))}"
    # Hour 24, minute 60 and second 61 are out of range; second 60 is
    # a leap second and parses.
    return (f"{draw(_digits(0, 24, 2))}:{draw(_digits(0, 60, 2))}:"
            f"{draw(_digits(0, 61, 2))}.{draw(_digits(0, 999_999, 6))}")


@st.composite
def headers(draw) -> str:
    stamp = draw(timestamps())
    separator = draw(st.sampled_from([" ", "  ", "  ", "\t"]))
    if draw(st.booleans()):  # pid-less (strace without -f)
        return f"{stamp}{separator}"
    pid = HUGE if draw(st.integers(0, 15)) == 0 \
        else draw(st.integers(1, 99_999))
    return f"{pid}{separator}{stamp}{separator}"


@st.composite
def quoted(draw) -> str:
    text = draw(st.text(_STRING_CHARS, max_size=8))
    escapes = draw(st.lists(st.sampled_from(
        ['\\"', "\\\\", "\\n", "\\t", "\\303\\251", "\\377"]), max_size=2))
    body = text + "".join(escapes)
    return f'"{body}"' + draw(st.sampled_from(["", "..."]))


@st.composite
def annotations(draw) -> str:
    path = draw(st.text(_PATH_CHARS, min_size=1, max_size=10))
    return f"{draw(st.integers(0, 99))}<{path}>"


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=3).map(
            lambda items: "{" + ", ".join(items) + "}"),
        st.lists(children, max_size=3).map(
            lambda items: "[" + ", ".join(items) + "]"),
        children.map(lambda item: f"st_mode={item}"),
    )


plain_text = st.text(st.sampled_from(_PLAIN_CHARS), max_size=8)
simple_atoms = st.one_of(
    st.integers(-5, 1 << 40).map(str),
    st.sampled_from(["...", "AT_FDCWD", "O_RDONLY|O_CLOEXEC", "NULL",
                     "0x7f00", "SEEK_SET", ""]),
    plain_text.map(lambda text: f'"{text}"'),
    st.tuples(st.integers(0, 99), plain_text).map(
        lambda pair: f"{pair[0]}<{pair[1]}>"),
)
arguments = st.one_of(
    simple_atoms,
    st.recursive(st.one_of(simple_atoms, quoted(), annotations()),
                 _nested, max_leaves=4),
)


@st.composite
def return_clauses(draw) -> str:
    value = draw(st.sampled_from(
        ["0", "5", "832", "-1", "?", "0x7f1234560000", "banana", "3",
         HUGE]))
    clause = f"= {value}"
    if draw(st.booleans()):
        clause += f"<{draw(st.one_of(plain_text, st.text(_PATH_CHARS)))}>"
    if draw(st.booleans()):
        clause += " " + draw(st.sampled_from(
            ["ENOENT (No such file or directory)", "EAGAIN (x)",
             "ERESTARTSYS (To be restarted)"]))
    if draw(st.booleans()):
        clause += draw(st.sampled_from([" (Timeout)", " (flags O_RDONLY)"]))
    if draw(st.integers(0, 3)):  # a missing -T now and then
        seconds = HUGE if draw(st.integers(0, 15)) == 0 \
            else draw(st.integers(0, 3))
        clause += f" <{seconds}.{draw(_digits(0, 999_999, 6))}>"
    return clause


@st.composite
def syscall_bodies(draw) -> str:
    call = draw(calls)
    args = ", ".join(draw(st.lists(arguments, max_size=4)))
    gap = draw(st.sampled_from(["", " ", "  ", "\t"]))
    tail = draw(st.sampled_from(["", " ", "  "]))
    return f"{call}({args}){gap} {draw(return_clauses())}{tail}"


@st.composite
def bodies(draw) -> str:
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return f"{draw(calls)}({draw(arguments)}, <unfinished ...>"
    if kind == 1:
        return (f"<... {draw(calls)} resumed> ..., 5) "
                f"{draw(return_clauses())}")
    if kind == 2:
        return draw(st.sampled_from(["--- SIGCHLD {si_signo=SIGCHLD} ---",
                                     "+++ exited with 0 +++"]))
    if kind == 3:
        return draw(st.sampled_from(["garbage", "read(3", "= 0"]))
    return draw(syscall_bodies())


@st.composite
def lines(draw) -> str:
    return draw(headers()) + draw(bodies())


_FDS = ["3</a>", "4</b c>", "5</d/caf\u00e9>", "6</e,f>", "3"]
_PATHS = ['"/a"', '"/b c"', '"/caf\\303\\251"', '"/d,e"', '"/x\\"y"']


@st.composite
def calls_with_args(draw) -> tuple[str, list[str], str]:
    """``(call, arguments, return clause)`` of one well-formed call in
    the shapes strace writes: annotated fds, quoted paths (escapes and
    commas included), ``{...}`` structs, errnos (restarts included),
    now and then an integer past int64 or a missing ``-T``."""
    call = draw(st.sampled_from(["read", "write", "pread64", "openat",
                                 "stat", "lseek", "close", "frobnicate"]))
    fd = draw(st.sampled_from(_FDS))
    path = draw(st.sampled_from(_PATHS))
    size = draw(st.integers(0, 70_000))
    ret = "0"
    if call in ("read", "write", "pread64"):
        args = [fd, draw(st.sampled_from(["...", '"ab"', '"a\\nb"...']))
                , str(size)] + (["0"] if call == "pread64" else [])
        ret = draw(st.sampled_from([
            str(size), str(size), "0", "-1 EAGAIN (Resource temporarily "
            "unavailable)", "? ERESTARTSYS (To be restarted if SA_RESTART "
            "is set)", HUGE if draw(st.integers(0, 49)) == 29 else "1"]))
    elif call == "openat":
        args = ["AT_FDCWD", path, "O_RDONLY|O_CLOEXEC"]
        ret = draw(st.sampled_from([
            f"3{fd[1:]}" if "<" in fd else "3", "-1 ENOENT (No such file "
            "or directory)"]))
    elif call == "stat":
        args = [path, "{st_mode=S_IFREG|0644, st_size=0}"]
    elif call == "lseek":
        args = [fd, "0", "SEEK_SET"]
    elif call == "close":
        args = [fd]
    else:
        args = draw(st.lists(simple_atoms, max_size=3))
    dur = draw(st.sampled_from(["<0.000010>", "<0.000002>", "<1.000000>",
                                ""]))
    if draw(st.integers(0, 99)) == 57:  # not 0: a favoured draw
        dur = f"<{HUGE}.000001>"
    return call, args, f"{ret} {dur}".rstrip()


@st.composite
def trace_files(draw) -> list[str]:
    """The lines of one trace with structure across lines: a few pids
    interleaved, stamps that tie across pids, calls split into
    unfinished/resumed pairs, exits orphaning a pending call, orphan
    resumed halves, signals, blank lines, and now and then any line
    of :func:`lines` or a pid past int64."""
    pids = draw(st.lists(st.sampled_from([100, 200, 300]), min_size=1,
                         max_size=3, unique=True))
    clock = draw(st.integers(0, 80_000 * 10**6))
    pending: dict[int, tuple[str, list[str], str]] = {}
    out = []
    for _ in range(draw(st.integers(1, 20))):
        clock += draw(st.sampled_from([0, 0, 1, 7, 1000]))
        pid = draw(st.sampled_from(pids))
        head = f"{pid}  {format_wallclock(clock)} "
        # Rare steps sit mid-range: hypothesis favours the bounds.
        step = draw(st.integers(0, 99))
        call, args, ret = draw(calls_with_args())
        if step <= 17:
            out.append(f"{head}{call}({', '.join(args)}) = {ret}")
        elif step <= 32 and pid not in pending:
            cut = draw(st.integers(0, len(args)))
            pending[pid] = (call, args[cut:], ret)
            first = "".join(f"{arg}, " for arg in args[:cut])
            out.append(f"{head}{call}({first}<unfinished ...>")
        elif step <= 47 and pid in pending:
            call, rest, ret = pending.pop(pid)
            out.append(f"{head}<... {call} resumed> {', '.join(rest)}) = "
                       f"{ret}")
        elif 48 <= step <= 50:
            pending.pop(pid, None)
            out.append(f"{head}+++ exited with 0 +++")
        elif step == 51 and draw(st.booleans()):  # orphan resumed half
            out.append(f"{head}<... {call} resumed> ) = {ret}")
        elif step == 52:
            out.append(draw(lines()))
        elif step == 53:
            out.append(f"{HUGE}  {format_wallclock(clock)} close(3) = 0")
        elif 54 <= step <= 57:
            out.append(f"{head}--- SIGCHLD {{si_signo=SIGCHLD}} ---")
        elif 58 <= step <= 62:
            out.append(draw(st.sampled_from(["", "   "])))
        else:
            out.append(f"{head}{call}({', '.join(args)}) = {ret}")
    return out


# -- the two paths -----------------------------------------------------------


def _outcome(tokens, strict: bool = True):
    """``(tokens, records, stats)`` of one path, or its error message.

    ``tokens`` is lazy, so the merger consumes each token as it is
    made and the first error in line order wins on both paths.
    """
    seen = []

    def tee():
        for token in tokens:
            seen.append(token)
            yield token

    try:
        records, stats = merge_unfinished(tee(), path=PATH, strict=strict)
    except TraceParseError as exc:
        return ("error", str(exc))
    return seen, records, stats


def _reference(text: str):
    return _outcome(
        tokenize_line(line, path=PATH, lineno=lineno)
        for lineno, line in enumerate(text.split("\n"), start=1)
        if line.strip())


def _decoded(text: str):
    decoder = LineDecoder(PATH)
    return _outcome(itertools.chain(decoder.feed(text.encode("utf-8")),
                                    decoder.finish()))


SEEDS = [
    '7  10:00:00.000001 read(3</d/a"b),c>, ..., 5) = 5 <0.000002>',
    '7  10:00:00.000001 write(1</dev/pts/7>, "a,b)", 9) = 9 <0.000002>',
    '7  10:00:00.000001 write(1</x>, "say \\"hi\\"", 9) = 9 <0.000002>',
    "7  10:00:00.000001 read(3</x>, ..., 832) = banana <0.000016>",
    "7  24:00:00.000001 close(3</x>) = 0 <0.000001>",
    "7  10:00:60.000001 close(3</x>) = 0 <0.000001>",
    "7  10:00:61.000001 close(3</x>) = 0 <0.000001>",
    "1700000000.123456 close(3</x>) = 0 <0.000001>",
    "10:00:00.000001 close(3</x>) = 0 <0.000001>",
    "7  10:00:00.000001 close(3</x>) = 3<unfinished ...>",
    "7  10:00:00.000001 mmap(NULL, 8192) = 0x7f00 <0.000012>",
    "7  10:00:00.000001 read(3</x>, ..., 4) = -1 EAGAIN (x) (Timeout)",
    '7  10:00:00.000001 stat("/tmp/caf\\303\\251", {st_size=0}) = 0 '
    "<0.000018>",
]


@given(lines())
@settings(max_examples=600, deadline=None)
@example(SEEDS[0])
@example(SEEDS[1])
@example(SEEDS[2])
@example(SEEDS[3])
@example(SEEDS[4])
@example(SEEDS[5])
@example(SEEDS[6])
@example(SEEDS[7])
@example(SEEDS[8])
@example(SEEDS[9])
@example(SEEDS[10])
@example(SEEDS[11])
@example(SEEDS[12])
def test_decoder_matches_reference_per_line(line):
    expected = _reference(line)
    assert _decoded(line) == expected
    if expected[0] == "error":
        return
    fast = parse_complete_line(line, 0, 1)
    if fast is not None:
        tokens, records, _ = expected
        assert [fast] == tokens
        assert fast.lineno == 1
        assert fast.record == parse_body(fast.pid, fast.start_us, fast.body)


@given(st.one_of(st.lists(lines(), min_size=1, max_size=12),
                 trace_files()))
@settings(max_examples=200, deadline=None)
def test_decoder_matches_reference_per_file(lines_):
    """Across lines: merged pairs, orphans and the line an error names."""
    text = "\n".join(lines_) + "\n"
    assert _decoded(text) == _reference(text)


@given(syscall_bodies())
@settings(max_examples=300, deadline=None)
def test_simple_body_matches_scanner(body):
    """The merger parses a joined split call with the body part of the
    line regex first; wherever it takes a body, the scanner agrees."""
    try:
        expected = parse_body(7, 11, body, path=PATH, lineno=3)
    except TraceParseError as exc:
        expected = ("error", str(exc))
    try:
        fast = parse_simple_body(7, 11, body, path=PATH, lineno=3)
    except TraceParseError as exc:
        fast = ("error", str(exc))
    if fast is not None:
        assert fast == expected


def test_fast_path_takes_the_common_shapes():
    """The property above is only as strong as the share of lines the
    fast path takes: pin which of the seeds it must take and refuse."""
    taken = [parse_complete_line(line) is not None for line in SEEDS]
    assert taken == [False, False, False, False, False, True, False,
                     False, True, False, True, True, False]


# -- batch and live -----------------------------------------------------------

GOOD_LINES = [
    "100  10:00:00.000001 read(3</a>, ..., 10) = 10 <0.000005>",
    "100  10:00:00.000002 openat(AT_FDCWD, \"/a\", O_RDONLY) = 3</a> "
    "<0.000005>",
    '100  10:00:00.000003 write(1</b>, "x,y", 3) = 3 <0.000002>',
    "100  10:00:00.000004 read(3</a>, <unfinished ...>",
    "200  10:00:00.000005 close(5</c>) = 0 <0.000001>",
    "200  10:00:00.000006 --- SIGCHLD {si_signo=SIGCHLD} ---",
    "100  10:00:00.000900 <... read resumed> ..., 20) = 20 <0.000899>",
    "200  10:00:00.001000 lseek(5</c>, 0, SEEK_SET) = 0 <0.000001>",
    '200  10:00:00.001001 stat("/c\\303\\251", {st_size=0}) = 0 '
    "<0.000001>",
    "200  10:00:00.001002 +++ exited with 0 +++",
]


@given(st.sets(st.sampled_from(range(len(GOOD_LINES))), min_size=1),
       st.lists(st.integers(1, 200), max_size=8),
       st.sampled_from([b"\n", b"\r\n"]))
@settings(max_examples=80, deadline=None)
def test_live_and_batch_reach_the_same_state(tmp_path_factory, picks, cuts,
                                             newline):
    """A file growing in arbitrary byte slices under :class:`FileTail`
    ends where one batch read of the final file does, fast path on."""
    if 3 not in picks:  # no resumed half without its unfinished one
        picks.discard(6)
    lines_ = [GOOD_LINES[i] for i in sorted(picks)]
    data = newline.join(line.encode() for line in lines_) + newline
    path = tmp_path_factory.mktemp("t") / "a_host1_1.st"
    path.write_bytes(b"")
    tail = FileTail(path)
    records = []
    offset = 0
    for cut in cuts:
        offset = min(len(data), offset + cut)
        path.write_bytes(data[:offset])
        records += tail.poll()
    path.write_bytes(data)
    records += tail.poll()
    records += tail.finish()
    batch = read_trace_file(path)
    assert records == batch.records
    assert tail.merger.stats == batch.merge_stats
    stream = TokenStream(path)
    list(stream)
    assert tail.decoder.lineno == stream.n_lines


def test_fast_path_is_on_for_batch_reads(tmp_path):
    path = tmp_path / "a_host1_1.st"
    path.write_text("\n".join(GOOD_LINES) + "\n")
    tokens = list(TokenStream(path))
    fast = [token.record is not None for token in tokens]
    assert fast == [True, True, False, False, True, False, False, True,
                    False, False]
    assert all(token.kind is RecordKind.SYSCALL
               for token, taken in zip(tokens, fast) if taken)


# -- the column builder ------------------------------------------------------


@st.composite
def trace_bytes(draw) -> bytes:
    """A generated trace as file bytes: LF or CRLF per line, maybe no
    terminator on the last line, maybe a byte that is not UTF-8."""
    lines_ = draw(st.one_of(trace_files(), trace_files(),
                            st.lists(lines(), min_size=1, max_size=12)))
    data = b""
    for line in lines_:
        raw = line.encode("utf-8")
        if draw(st.integers(0, 59)) == 13:
            cut = draw(st.integers(0, len(raw)))
            raw = raw[:cut] + b"\xff" + raw[cut:]
        data += raw + draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    return data


def _columns_reference(data: bytes, strict: bool):
    """``case_to_columns`` over ``merge_unfinished`` of the decoder's
    tokens — the record route — or its error message."""
    decoder = LineDecoder(PATH, strict=strict)
    try:
        records, stats = merge_unfinished(
            itertools.chain(decoder.feed(data), decoder.finish()),
            path=PATH, strict=strict)
    except TraceParseError as exc:
        return ("error", str(exc))
    stats.decode_replacements = decoder.decode_replacements
    return case_to_columns(TraceCase(NAME, records, stats))


def _columns_built(data: bytes, cuts: list[int], strict: bool):
    builder = CaseColumnBuilder(PATH, strict=strict)
    offset = 0
    try:
        for cut in cuts:
            builder.feed(data[offset:offset + cut])
            offset += cut
        builder.feed(data[offset:])
        return builder.finish(NAME)
    except TraceParseError as exc:
        return ("error", str(exc))


def assert_same_columns(one, other) -> None:
    """Equal names, arrays (dtypes included), pools and merge stats."""
    assert one.name == other.name
    for column in ("pid", "start", "dur", "size", "call", "fp"):
        a, b = getattr(one, column), getattr(other, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
    assert one.calls == other.calls
    assert one.paths == other.paths
    assert one.merge_stats == other.merge_stats


@given(trace_bytes(), st.lists(st.integers(0, 120), max_size=8),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_builder_matches_record_route(data, cuts, strict):
    expected = _columns_reference(data, strict)
    built = _columns_built(data, cuts, strict)
    if isinstance(expected, tuple):
        assert built == expected
        assert ":" in expected[1].rsplit("[", 1)[-1]  # names the line
    else:
        assert not isinstance(built, tuple), built
        assert_same_columns(built, expected)


#: The line shapes of the simulated IOR traces (the benchmark's input):
#: complete lines, the two halves of a split call, and signals/exits.
IOR_COMPLETE = [
    '40003  09:15:00.000699 openat(AT_FDCWD, "/p/sw/probe-0/libmpi.so.40", '
    "O_RDONLY|O_CLOEXEC) = -1 ENOENT (No such file or directory) "
    "<0.000014>",
    '40003  09:15:00.001042 openat(AT_FDCWD, "/p/sw/lib/libmpi.so.40", '
    "O_RDONLY|O_CLOEXEC) = 3</p/sw/lib/libmpi.so.40> <0.000011>",
    "40003  09:15:00.000982 read(3</p/sw/lib/libmpi.so.40>, ..., 832) = "
    "832 <0.000024>",
    "40003  09:15:00.001793 write(3</dev/shm/psm2_shm.0>, ..., 65536) = "
    "65536 <0.000038>",
    "40003  09:15:00.001525 lseek(3</p/sw/lib/libmpi.so.40>, 0, SEEK_SET) "
    "= 0 <0.000009>",
    "40003  09:15:02.399529 pwrite64(3</p/scratch/ssf/test2>, ..., "
    "1048576, 0) = 1048576 <0.001200>",
    "40003  09:15:03.000001 close(3</p/scratch/ssf/test2>) = 0 <0.000004>",
]
IOR_SPLIT = [
    ("40003  09:15:00.000726 openat(AT_FDCWD, <unfinished ...>",
     '40003  09:15:00.000734 <... openat resumed> "/p/sw/probe-2/libpsm2.so'
     '.2", O_RDONLY|O_CLOEXEC) = -1 ENOENT (No such file or directory) '
     "<0.000008>"),
    ("40003  09:15:00.001586 read(3</p/sw/lib/libopen-pal.so.40>, "
     "<unfinished ...>",
     "40003  09:15:00.001609 <... read resumed> ..., 4096) = 4096 "
     "<0.000023>"),
    ("40003  09:15:04.076726 pread64(3</p/scratch/ssf/test2>, "
     "<unfinished ...>",
     "40003  09:15:04.077900 <... pread64 resumed> ..., 1048576, 0) = "
     "1048576 <0.001174>"),
]
IOR_OTHER = [
    "40003  09:15:05.000000 --- SIGCHLD {si_signo=SIGCHLD} ---",
    "40003  09:15:05.000001 +++ exited with 0 +++",
]


def test_builder_fast_paths_take_the_ior_line_shapes():
    for line in IOR_COMPLETE:
        assert line_fields(line) is not None, line
    for head, tail in IOR_SPLIT:
        unfinished = classify_line(head)
        resumed = classify_line(tail)
        assert unfinished.kind is RecordKind.UNFINISHED
        assert resumed.kind is RecordKind.RESUMED
        assert unfinished == tokenize_line(head)
        assert resumed == tokenize_line(tail)
        body = _join_bodies(unfinished.body, resumed.body,
                            resumed_call_name(resumed.body))
        assert parse_simple_body(7, 11, body) is not None, body
    for line in IOR_OTHER:
        assert classify_line(line) == tokenize_line(line)


def test_simulated_ior_never_reaches_the_reference_path(tmp_path,
                                                        monkeypatch):
    """With the reference tokenizer and body parser disabled, the
    builder still reads simulated IOR traces (POSIX and MPI-IO, a
    third of the calls split) to the record route's exact columns."""
    from repro.simulate.strace_writer import (
        EXPERIMENT_A_CALLS,
        EXPERIMENT_B_CALLS,
        write_trace_files,
    )
    from repro.simulate.workloads.ior import IORConfig, simulate_ior

    for api, calls in (("posix", EXPERIMENT_A_CALLS),
                       ("mpiio", EXPERIMENT_B_CALLS)):
        run = simulate_ior(IORConfig(ranks=2, ranks_per_node=1,
                                     segments=1, api=api, cid=api,
                                     seed=5))
        write_trace_files(run.recorders, tmp_path / api, trace_calls=calls,
                          unfinished_probability=0.3, seed=3)
    paths = sorted(tmp_path.glob("*/*.st"))
    expected = [case_to_columns(read_trace_file(path)) for path in paths]
    assert sum(case.merge_stats.merged_pairs for case in expected) > 0

    def refuse(*args, **kwargs):
        raise AssertionError("a line took the reference path")

    monkeypatch.setattr(streaming, "tokenize_line", refuse)
    monkeypatch.setattr(resume, "parse_body", refuse)
    for path, want in zip(paths, expected):
        assert_same_columns(read_case_columns(path), want)
