"""Shared hypothesis strategies + replay machinery for live suites.

The live, alerting and compaction property suites all drive the same
adversary: a finished trace directory revealed to a watcher in
randomized increments — which file grows when, how many bytes land per
step (cut at *arbitrary* positions, so lines and unfinished/resumed
pairs split across polls), where polls and kill/restart cycles happen.
This module holds the one schedule strategy and the byte-cutting
replay helper those suites used to copy, plus :func:`event_frames`,
the random columnar frame the core analysis properties draw.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from repro.core.frame import MISSING, EventFrame, FramePools


def growth_steps(n_files: int = 4, max_steps: int = 30):
    """A growth schedule: per step ``(file index, percent of the
    file's remaining bytes to append, poll-after-this-step?)``.
    Percentages are drawn as integers to keep shrinking effective."""
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=n_files - 1),
                  st.integers(min_value=1, max_value=100),
                  st.booleans()),
        min_size=1, max_size=max_steps)


def write_all(directory: Path | str,
              file_bytes: dict[str, bytes]) -> None:
    """Write a rendered workload's files into a directory at once."""
    directory = Path(directory)
    for filename, content in file_bytes.items():
        (directory / filename).write_bytes(content)


class DirectoryGrower:
    """Reveals ``file_bytes`` into ``live_dir`` incrementally.

    Owns the offset arithmetic every replay loop used to duplicate:
    :meth:`apply` appends one schedule step's chunk (at least one byte
    while any remain, so schedules always make progress);
    :meth:`finish` appends every file's unrevealed tail. File names
    are addressed by index modulo the file count, matching the
    ``growth_steps`` strategy.
    """

    def __init__(self, live_dir: Path | str,
                 file_bytes: dict[str, bytes]) -> None:
        self.live_dir = Path(live_dir)
        self.file_bytes = dict(file_bytes)
        self.names = sorted(file_bytes)
        self.offsets = {name: 0 for name in self.names}

    def _append(self, name: str, chunk: int) -> int:
        if chunk <= 0:
            return 0
        offset = self.offsets[name]
        with open(self.live_dir / name, "ab") as handle:
            handle.write(self.file_bytes[name][offset:offset + chunk])
        self.offsets[name] = offset + chunk
        return chunk

    def apply(self, file_index: int, percent: int) -> int:
        """One schedule step: append ``percent`` of the file's
        remaining bytes (>= 1 while any remain); returns bytes
        appended."""
        name = self.names[file_index % len(self.names)]
        remaining = len(self.file_bytes[name]) - self.offsets[name]
        chunk = max(1, remaining * percent // 100) if remaining else 0
        return self._append(name, chunk)

    def finish_file(self, name: str) -> int:
        """Append everything still unrevealed of one file."""
        return self._append(
            name, len(self.file_bytes[name]) - self.offsets[name])

    def finish(self) -> int:
        """Append every file's unrevealed tail; returns total bytes."""
        return sum(self.finish_file(name) for name in self.names)

    def each_finished(self):
        """Yield every file name after appending its tail (for suites
        that poll between per-file reveals)."""
        for name in self.names:
            self.finish_file(name)
            yield name

    @property
    def done(self) -> bool:
        return all(self.offsets[name] == len(self.file_bytes[name])
                   for name in self.names)


def replay_schedule(file_bytes: dict[str, bytes], schedule, *,
                    live_dir: Path | str, poll, on_step=None) -> None:
    """Run one growth schedule to completion.

    ``poll()`` is called after every step whose flag is set and once
    at the end (with everything revealed). ``on_step(step_index)``,
    when given, runs after each schedule step — the hook where suites
    place kill/restart cycles.
    """
    grower = DirectoryGrower(live_dir, file_bytes)
    for step_index, (file_index, percent, do_poll) in \
            enumerate(schedule):
        grower.apply(file_index, percent)
        if do_poll:
            poll()
        if on_step is not None:
            on_step(step_index)
    grower.finish()
    poll()


#: Default per-row ``(start, dur, size)`` draw of :func:`event_frames`.
SMALL_TIMINGS = st.tuples(
    st.integers(min_value=0, max_value=1000),
    st.one_of(st.just(MISSING), st.integers(min_value=0, max_value=50)),
    st.one_of(st.just(MISSING), st.integers(min_value=0, max_value=4096)))


@st.composite
def event_frames(draw, *, max_cases: int = 8, max_activities: int = 12,
                 max_rows: int = 40, timings=SMALL_TIMINGS) -> EventFrame:
    """A random mapped frame for the columnar analysis layers.

    Rows come in arbitrary case order and may be unmapped (``MISSING``
    activity), so cases with no mapped event and single-event cases
    occur; case codes are interned out of name order and every pool
    holds codes no row uses. Cases carry one of up to three cids, so
    ``filtered_cids``/``PartitionEL`` sub-logs can be cut.
    ``timings`` draws each row's ``(start, dur, size)``.
    """
    n_cases = draw(st.integers(min_value=1, max_value=max_cases))
    n_activities = draw(st.integers(min_value=1, max_value=max_activities))
    pools = FramePools()
    for i in draw(st.permutations(range(n_cases + 2))):
        pools.cases.intern(f"c{i}")
    for i in range(n_activities + 2):
        pools.activities.intern(f"a{i}")
    for cid in draw(st.permutations(["x", "y", "z"])):
        pools.cids.intern(cid)
    host = pools.hosts.intern("h")
    call = pools.calls.intern("read")
    case_cids = draw(st.lists(st.integers(min_value=0, max_value=2),
                              min_size=n_cases, max_size=n_cases))
    rows = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=n_cases - 1),
                  st.sampled_from([MISSING, *range(n_activities)]),
                  st.integers(min_value=0, max_value=3),
                  timings),
        min_size=1, max_size=max_rows))
    case = np.array([r[0] for r in rows], dtype=np.int32)
    columns = {
        "case": case,
        "cid": np.array([case_cids[c] for c in case], dtype=np.int32),
        "host": np.full(len(rows), host, dtype=np.int32),
        "rid": np.array([r[2] for r in rows], dtype=np.int64),
        "pid": np.ones(len(rows), dtype=np.int64),
        "call": np.full(len(rows), call, dtype=np.int32),
        "start": np.array([r[3][0] for r in rows], dtype=np.int64),
        "dur": np.array([r[3][1] for r in rows], dtype=np.int64),
        "fp": np.full(len(rows), MISSING, dtype=np.int32),
        "size": np.array([r[3][2] for r in rows], dtype=np.int64),
        "activity": np.array([r[1] for r in rows], dtype=np.int32),
    }
    return EventFrame(pools, columns)
