"""The line decoder's fast path against the reference path.

:func:`~repro.strace.parser.parse_complete_line` parses a complete
syscall line of the common shape in one regex match; everything else
goes through :func:`~repro.strace.tokenizer.tokenize_line`, the merger
and :func:`~repro.strace.parser.parse_body` with its character scanner.
The scanner is the reference: on every generated line the decoder must
produce the same tokens, records and merge statistics, or raise
:class:`TraceParseError` with the same message. The generator leans
on the shapes the fast path must refuse — quoting, nesting, odd
annotations, out-of-range clocks — next to the ones it must take.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro._util.errors import TraceParseError
from repro.ingest.streaming import LineDecoder, TokenStream
from repro.live.tail import FileTail
from repro.strace.parser import parse_body, parse_complete_line
from repro.strace.reader import read_trace_file
from repro.strace.resume import merge_unfinished
from repro.strace.tokenizer import RecordKind, tokenize_line

PATH = "dir/a_node01_1.st"

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
    return f"{draw(st.integers(1, 99_999))}{separator}{stamp}{separator}"


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
        ["0", "5", "832", "-1", "?", "0x7f1234560000", "banana", "3"]))
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
        clause += f" <{draw(st.integers(0, 3))}." \
                  f"{draw(_digits(0, 999_999, 6))}>"
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


# -- the two paths -----------------------------------------------------------


def _outcome(tokens_fn):
    """``(tokens, records, stats)`` of one path, or its error message."""
    try:
        tokens = tokens_fn()
        records, stats = merge_unfinished(tokens, path=PATH)
    except TraceParseError as exc:
        return ("error", str(exc))
    return tokens, records, stats


def _reference(text: str):
    return _outcome(lambda: [
        tokenize_line(line, path=PATH, lineno=lineno)
        for lineno, line in enumerate(text.split("\n"), start=1)
        if line.strip()])


def _decoded(text: str):
    decoder = LineDecoder(PATH)
    return _outcome(lambda: [*decoder.feed(text.encode("utf-8")),
                             *decoder.finish()])


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
    fast = parse_complete_line(line, 0, 1)
    if fast is not None:
        tokens, records, _ = expected
        assert [fast] == tokens
        assert fast.lineno == 1
        assert fast.record == parse_body(fast.pid, fast.start_us, fast.body)


@given(st.lists(lines(), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_decoder_matches_reference_per_file(lines_):
    """Across lines: merged pairs, orphans and the line an error names."""
    text = "\n".join(lines_) + "\n"
    assert _decoded(text) == _reference(text)


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
