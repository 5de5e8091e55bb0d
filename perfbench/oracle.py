"""Correctness checks that do not trust the code being measured.

The batch check compares an ingested :class:`~repro.core.eventlog.EventLog`
with what the simulator recorded (:func:`perfbench.inputs.expected_columns`):
the case set, per-case event counts, per-call counts and bytes, and the
``start``/``dur`` columns. Nothing here calls the tokenizer, parser,
merger or frame builder; the log is read through its raw columns.

The live check adds what batch ingestion of the final directory must
agree with: the watcher's DFG and statistics, and the bytes of the
``.elog`` it emitted.

Every check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

#: Calls whose return value is a byte count (Sec. III, item 6).
TRANSFER_CALLS = frozenset({"read", "write", "pread64", "pwrite64"})


def _call_summary(calls, sizes) -> dict[str, tuple[int, int]]:
    """``call → (count, bytes)``."""
    counts = Counter(calls)
    totals: Counter = Counter()
    for call, size in zip(calls, sizes):
        if call in TRANSFER_CALLS and size >= 0:
            totals[call] += int(size)
    return {call: (counts[call], totals[call]) for call in counts}


def check_log(log, expected: dict[str, dict], label: str) -> list[str]:
    """Compare ``log`` with the expected per-case columns."""
    frame = log.frame
    pools = frame.pools
    call_names = np.array([pools.calls.decode(code)
                           for code in range(len(pools.calls))] or [""],
                          dtype=str)
    problems: list[str] = []
    seen = set()
    for code, rows in frame.case_slices():
        case = pools.cases.decode(code)
        seen.add(case)
        want = expected.get(case)
        if want is None:
            problems.append(f"{label}: unexpected case {case}")
            continue
        start = frame.column("start")[rows]
        dur = frame.column("dur")[rows]
        size = frame.column("size")[rows]
        calls = call_names[frame.column("call")[rows]]
        if len(start) != len(want["start"]):
            problems.append(f"{label}: case {case} has {len(start)} "
                            f"events, expected {len(want['start'])}")
            continue
        got_order = np.lexsort((dur, start))
        want_order = np.lexsort((want["dur"], want["start"]))
        if not np.array_equal(start[got_order],
                              want["start"][want_order]):
            problems.append(f"{label}: case {case} start column differs")
        if not np.array_equal(dur[got_order], want["dur"][want_order]):
            problems.append(f"{label}: case {case} dur column differs")
        if _call_summary(calls, size) != _call_summary(want["call"],
                                                       want["size"]):
            problems.append(f"{label}: case {case} per-call counts or "
                            f"bytes differ")
    missing = set(expected) - seen
    if missing:
        problems.append(f"{label}: {len(missing)} case(s) missing, e.g. "
                        f"{sorted(missing)[0]}")
    return problems


def expected_union(expected: dict[str, dict[str, dict]],
                   names) -> dict[str, dict]:
    """The per-case expectation of several trace sets together."""
    merged: dict[str, dict] = {}
    for name in names:
        merged.update(expected[name])
    return merged


def check_live(engine, batch_log, emitted: bytes,
               converted: bytes) -> list[str]:
    """The watcher's end state against batch ingestion of the final
    directory (``batch_log``, already mapped like the watcher) and the
    emitted ``.elog`` against ``convert_source`` of that directory."""
    from repro.core.dfg import DFG
    from repro.core.statistics import IOStatistics
    from repro.pipeline.serialize import stats_payload

    problems = []
    if engine.snapshot_dfg() != DFG(batch_log):
        problems.append("live: final DFG differs from batch ingest")
    if stats_payload(engine.statistics()) != stats_payload(
            IOStatistics(batch_log)):
        problems.append("live: final statistics differ from batch ingest")
    if emitted != converted:
        problems.append(f"live: emitted .elog ({len(emitted)} bytes) is "
                        f"not byte-identical to convert_source "
                        f"({len(converted)} bytes)")
    return problems
