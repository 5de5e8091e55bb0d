"""Merging of ``<unfinished ...>`` / ``<... resumed>`` record pairs.

When a traced process blocks inside a syscall while another traced
process produces records, strace splits the blocked call across two
lines (Fig. 2c of the paper)::

    77423  16:56:40.452431 read(3</usr/lib/...>, <unfinished ...>
    ...
    77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>

Per Sec. III: "The unfinished and the resumed records are matched using
the pid, and merged into a single record" — the merged record keeps the
*start* timestamp of the unfinished half and the *duration* and return
value from the resumed half. A single pid can have at most one call in
flight (one kernel thread = one syscall at a time), so a per-pid slot is
sufficient; we additionally check the syscall names agree, which guards
against trace corruption.

Interrupted calls — those whose return clause carries ``ERESTARTSYS`` —
are dropped, again per Sec. III ("we ignore these calls"). Signal
delivery (``--- SIGx ---``) and exit (``+++ exited +++``) records are
skipped here; the reader records their counts for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro._util.errors import TraceParseError
from repro.strace.parser import (
    ParsedRecord,
    parse_body,
    parse_simple_body,
)
from repro.strace.tokenizer import (
    RecordKind,
    Token,
    resumed_call_name,
    unfinished_call_name,
)

#: errno names treated as "interrupted; strace will restart" — the paper
#: names ERESTARTSYS; the kernel family has four members.
RESTART_ERRNOS = frozenset({
    "ERESTARTSYS",
    "ERESTARTNOINTR",
    "ERESTARTNOHAND",
    "ERESTART_RESTARTBLOCK",
})


@dataclass
class MergeStats:
    """Bookkeeping from a merge pass (exposed for tests/diagnostics)."""

    merged_pairs: int = 0
    dropped_restarts: int = 0
    skipped_signals: int = 0
    skipped_exits: int = 0
    orphan_unfinished: int = 0
    orphan_resumed: int = 0
    #: Undecodable bytes replaced with U+FFFD while reading the file
    #: (filled in by the reader; only non-zero under ``strict=False``).
    decode_replacements: int = 0


def _is_restart(record: ParsedRecord) -> bool:
    return record.errno in RESTART_ERRNOS


class IncrementalMerger:
    """Stateful unfinished/resumed merger, consumable in arbitrary slices.

    The live follower (:mod:`repro.live`) sees a trace file a few lines
    at a time, so the merge state — the per-pid in-flight slot — must
    survive between feeds. This class carries it, and additionally
    solves an ordering problem batch merging hides: a merged record
    sits at its *unfinished* (start) position, which precedes records
    already produced from lines between the two halves. Emitting those
    intermediate records eagerly would put them ahead of a record that
    still belongs before them.

    The merger therefore *seals* records with a watermark: a completed
    record leaves the internal buffer only once its start timestamp is
    at or below every in-flight unfinished call's start — at that point
    no future merge can sort ahead of it (strace writes plain lines in
    timestamp order; any inversion would have forced a split, which is
    represented in the pending map). Sealed output across feeds is
    exactly the sorted record list batch merging produces: ties on
    start timestamp break by completion order, matching the stable
    sort of :func:`merge_unfinished` — which is now a thin wrapper
    around one feed + finish.

    Parameters mirror :func:`merge_unfinished`; :attr:`stats` is
    updated in place as tokens arrive.
    """

    __slots__ = ("path", "strict", "stats", "_pending", "_buffer", "_seq")

    def __init__(self, *, path: str | None = None,
                 strict: bool = True) -> None:
        self.path = path
        self.strict = strict
        self.stats = MergeStats()
        # pid -> (token, call name) for the in-flight unfinished record.
        self._pending: dict[int, tuple[Token, str]] = {}
        # Completed but unsealed records: (start_us, completion seq,
        # record). The seq is the batch completion index, so sealing in
        # (start, seq) order reproduces the batch stable sort exactly.
        self._buffer: list[tuple[int, int, ParsedRecord]] = []
        self._seq = 0

    # -- introspection (live status displays) -----------------------------

    @property
    def n_pending(self) -> int:
        """In-flight unfinished calls awaiting their resumed half."""
        return len(self._pending)

    @property
    def n_buffered(self) -> int:
        """Completed records still held behind the seal watermark."""
        return len(self._buffer)

    @property
    def watermark_age_us(self) -> int:
        """How far (in trace time, µs) sealing lags behind parsing.

        Sealing starvation: an in-flight ``<unfinished ...>`` call
        holds every later completed record of its file behind the seal
        watermark until its resumed half arrives (or EOF orphans it).
        The age is the span between the newest buffered record's start
        and the watermark — ``0`` when nothing is held back. Computed
        from the pending/buffer state alone, so it is a pure function
        of the bytes consumed so far and survives checkpoint
        round-trips unchanged. Surfaced per file by
        :meth:`~repro.live.engine.LiveIngest.watermark_ages` for the
        watch status line and the ``watermark_age`` alerting rule.
        """
        if not self._pending or not self._buffer:
            return 0
        horizon = min(token.start_us
                      for token, _ in self._pending.values())
        return max(start for start, _, _ in self._buffer) - horizon

    def pending_tokens(self) -> list[Token]:
        """The unfinished halves currently in flight (for checkpoints)."""
        return [token for token, _ in self._pending.values()]

    def buffered_records(self) -> list[tuple[int, ParsedRecord]]:
        """``(completion_seq, record)`` of unsealed records (for
        checkpoints), in completion order."""
        return sorted(((seq, record)
                       for _, seq, record in self._buffer))

    # -- checkpoint restore ------------------------------------------------

    def restore(self, *, pending: Iterable[Token],
                buffered: Iterable[tuple[int, ParsedRecord]],
                next_seq: int, stats: MergeStats) -> None:
        """Reload carry-over state saved by a live checkpoint."""
        self._pending = {token.pid: (token, unfinished_call_name(token.body))
                         for token in pending}
        self._buffer = [(record.start_us, seq, record)
                        for seq, record in buffered]
        self._seq = next_seq
        self.stats = stats

    @property
    def next_seq(self) -> int:
        """The completion index the next record will get."""
        return self._seq

    # -- the merge ---------------------------------------------------------

    def feed(self, tokens: Iterable[Token]) -> list[ParsedRecord]:
        """Consume tokens and return the records sealed by them.

        Sealed records are final: their position in the overall record
        sequence can no longer change, so callers may fold them into
        downstream incremental structures immediately.
        """
        for token in tokens:
            record = self.complete(token)
            if record is not None:
                self._buffer.append((record.start_us, self._seq, record))
                self._seq += 1
        return self._drain()

    def finish(self) -> list[ParsedRecord]:
        """End of input: orphan in-flight calls, seal everything left."""
        self.orphan_pending()
        return self._drain()

    def orphan_pending(self) -> None:
        """End of input for the merge state: count and forget the
        in-flight calls (a process killed mid-call)."""
        self.stats.orphan_unfinished += len(self._pending)
        self._pending.clear()

    def complete(self, token: Token) -> ParsedRecord | None:
        """The merge state machine, one token at a time: the record the
        token completes, if any, without sealing it.

        :meth:`feed` buffers these behind the seal watermark; the batch
        column builder (:class:`~repro.ingest.streaming.CaseColumnBuilder`)
        appends them in completion order and sorts once at the end.
        """
        stats = self.stats
        if token.kind is RecordKind.SIGNAL:
            stats.skipped_signals += 1
            return None
        if token.kind is RecordKind.EXIT:
            stats.skipped_exits += 1
            # An exit while a call is pending orphans it.
            if token.pid in self._pending:
                del self._pending[token.pid]
                stats.orphan_unfinished += 1
            return None
        if token.kind is RecordKind.UNFINISHED:
            if token.pid in self._pending:
                raise TraceParseError(
                    f"pid {token.pid} has two in-flight unfinished calls",
                    path=self.path, lineno=token.lineno)
            self._pending[token.pid] = (
                token, unfinished_call_name(token.body))
            return None
        if token.kind is RecordKind.RESUMED:
            entry = self._pending.pop(token.pid, None)
            call = resumed_call_name(token.body)
            if entry is None:
                if self.strict:
                    raise TraceParseError(
                        f"resumed {call!r} for pid {token.pid} without a "
                        f"matching unfinished record", path=self.path,
                        lineno=token.lineno)
                stats.orphan_resumed += 1
                return None
            head_token, head_call = entry
            if head_call != call:
                raise TraceParseError(
                    f"pid {token.pid}: unfinished {head_call!r} resumed as "
                    f"{call!r}", path=self.path, lineno=token.lineno)
            body = _join_bodies(head_token.body, token.body, call)
            pid, start_us = head_token.pid, head_token.start_us
            record = parse_simple_body(
                pid, start_us, body, path=self.path, lineno=token.lineno) \
                or parse_body(pid, start_us, body, path=self.path,
                              lineno=token.lineno)
            if _is_restart(record):
                stats.dropped_restarts += 1
                return None
            stats.merged_pairs += 1
            return record
        # Plain complete syscall record; the line decoder's fast path
        # has already parsed most of them.
        record = token.record
        if record is None:
            record = parse_body(token.pid, token.start_us, token.body,
                                path=self.path, lineno=token.lineno)
        if _is_restart(record):
            stats.dropped_restarts += 1
            return None
        return record

    def _drain(self) -> list[ParsedRecord]:
        if not self._buffer:
            return []
        if self._pending:
            horizon = min(token.start_us
                          for token, _ in self._pending.values())
            sealed = [entry for entry in self._buffer
                      if entry[0] <= horizon]
            if not sealed:
                return []
            self._buffer = [entry for entry in self._buffer
                            if entry[0] > horizon]
        else:
            sealed = self._buffer
            self._buffer = []
        sealed.sort()
        return [record for _, _, record in sealed]


def merge_unfinished(
    tokens: Iterable[Token],
    *,
    path: str | None = None,
    strict: bool = True,
) -> tuple[list[ParsedRecord], MergeStats]:
    """Merge unfinished/resumed pairs and parse all syscall records.

    Parameters
    ----------
    tokens:
        Tokenized lines of *one* trace file, in file order. Any
        iterable works — in particular a lazy
        :class:`~repro.ingest.streaming.TokenStream`, so the full token
        list of a file never needs to exist in memory.
    path:
        For error messages.
    strict:
        If True, orphan resumed records (no matching unfinished) raise
        :class:`TraceParseError`; if False they are counted and skipped.
        Orphan unfinished records at EOF (process killed mid-call) are
        always skipped-and-counted — strace genuinely produces those.

    Returns
    -------
    (records, stats):
        Parsed records in start-timestamp order of their *initiating*
        line, and merge statistics.
    """
    merger = IncrementalMerger(path=path, strict=strict)
    records = merger.feed(tokens)
    records += merger.finish()
    # Stable sort by start time: sealed output is already sorted for
    # timestamp-ordered input; this restores the documented order for
    # token lists assembled out of file order (tests, synthetic input).
    records.sort(key=lambda r: r.start_us)
    return records, merger.stats


def _join_bodies(unfinished_body: str, resumed_body: str, call: str) -> str:
    """Splice the two halves back into one parseable syscall body.

    ``read(3</x>, <unfinished ...>`` + ``<... read resumed> ..., 405) =
    404 <0.000223>`` → ``read(3</x>,  ..., 405) = 404 <0.000223>``.
    """
    head = unfinished_body[: -len("<unfinished ...>")]
    marker = "resumed>"
    idx = resumed_body.index(marker)
    tail = resumed_body[idx + len(marker):]
    return head + tail.lstrip(" ") if head.endswith(" ") else head + tail
