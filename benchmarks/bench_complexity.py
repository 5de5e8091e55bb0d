"""The complexity claims of Sec. V ("Implementation").

The paper states: mapping application is O(n); DFG construction is a
single O(n) pass over the activity-log; statistics are O(mn); rendering
is O(m²) worst case (complete graph). This bench measures those stages
across a size sweep of synthetic event-logs and asserts near-linear
growth for the O(n) stages (time ratio within 3× of the size ratio —
generous to absorb allocator noise). A second sweep fixes the events
per activity and grows the activity count m instead: the DFG count,
the statistics pass and the ASCII render must stay linear in m too
(the render once computed its bar scale per node, which is O(m²)).
At fixed events and activities, the statistics pass must not grow
with the case count: it reduces whole columns, with no Python work
per (activity, case) pair.
A third check grows one live watch to a long history and times a
checkpoint save after a poll that touched one case: the encoding is
O(delta), so the save must not grow with the history at its rate.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro._util import durable
from repro.core.activity import ActivityLog, START_ACTIVITY, END_ACTIVITY
from repro.core.coloring import StatisticsColoring
from repro.core.dfg import DFG
from repro.core.eventlog import EventLog
from repro.core.frame import EventFrame, FramePools
from repro.core.mapping import CallTopDirs
from repro.core.render.ascii import render_ascii
from repro.core.render.dot import render_dot
from repro.core.statistics import IOStatistics
from repro.live.engine import LiveIngest

from conftest import paper_vs_measured


def synthetic_log(n_events: int, n_activities: int = 24,
                  n_cases: int = 8, seed: int = 1) -> EventLog:
    """A synthetic event-log with n events over m distinct paths."""
    rng = np.random.default_rng(seed)
    pools = FramePools()
    paths = [f"/data/dir{i % 6}/file{i}" for i in range(n_activities)]
    path_codes = np.array([pools.paths.intern(p) for p in paths],
                          dtype=np.int32)
    call_code = pools.calls.intern("read")
    case_codes = np.array(
        [pools.cases.intern(f"s{i}") for i in range(n_cases)],
        dtype=np.int32)
    cid_code = pools.cids.intern("s")
    host_code = pools.hosts.intern("h")

    case = np.repeat(case_codes, n_events // n_cases)
    case = np.resize(case, n_events)
    start = np.sort(rng.integers(0, 10**9, size=n_events)) \
        .astype(np.int64)
    columns = {
        "case": case,
        "cid": np.full(n_events, cid_code, dtype=np.int32),
        "host": np.full(n_events, host_code, dtype=np.int32),
        "rid": case.astype(np.int64),
        "pid": case.astype(np.int64) + 1000,
        "call": np.full(n_events, call_code, dtype=np.int32),
        "start": start,
        "dur": rng.integers(1, 1000, size=n_events).astype(np.int64),
        "fp": path_codes[rng.integers(0, n_activities, size=n_events)],
        "size": rng.integers(0, 1 << 20, size=n_events).astype(np.int64),
        "activity": np.full(n_events, -1, dtype=np.int32),
    }
    return EventLog(EventFrame(pools, columns))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


SIZES = (20_000, 80_000)


def test_mapping_application_linear(benchmark):
    """Step 2 of Fig. 6 is O(n)."""
    logs = {n: synthetic_log(n) for n in SIZES}
    small = min(_timed(lambda: logs[SIZES[0]].with_mapping(
        CallTopDirs())) for _ in range(3))
    large = min(_timed(lambda: logs[SIZES[1]].with_mapping(
        CallTopDirs())) for _ in range(3))
    ratio = large / small
    size_ratio = SIZES[1] / SIZES[0]
    paper_vs_measured("Sec. V — mapping is O(n)", [
        (f"time ratio for {size_ratio:.0f}x events",
         f"≈{size_ratio:.0f}", f"{ratio:.1f}")])
    assert ratio < 3 * size_ratio
    benchmark(lambda: logs[SIZES[0]].with_mapping(CallTopDirs()))


def test_dfg_construction_linear(benchmark):
    """Step 3 of Fig. 6 is a single O(n) pass."""
    logs = {n: synthetic_log(n).with_mapping(CallTopDirs())
            for n in SIZES}
    small = min(_timed(lambda: DFG(logs[SIZES[0]])) for _ in range(3))
    large = min(_timed(lambda: DFG(logs[SIZES[1]])) for _ in range(3))
    ratio = large / small
    size_ratio = SIZES[1] / SIZES[0]
    paper_vs_measured("Sec. V — DFG build is O(n)", [
        (f"time ratio for {size_ratio:.0f}x events",
         f"≈{size_ratio:.0f}", f"{ratio:.1f}")])
    assert ratio < 3 * size_ratio
    benchmark(lambda: DFG(logs[SIZES[0]]))


def test_statistics_pass_linear_in_n(benchmark):
    """Step 4 of Fig. 6 is O(mn); for fixed m it must scale with n."""
    logs = {n: synthetic_log(n).with_mapping(CallTopDirs())
            for n in SIZES}
    small = min(_timed(lambda: IOStatistics(logs[SIZES[0]]))
                for _ in range(3))
    large = min(_timed(lambda: IOStatistics(logs[SIZES[1]]))
                for _ in range(3))
    ratio = large / small
    size_ratio = SIZES[1] / SIZES[0]
    paper_vs_measured("Sec. V — statistics are O(mn), fixed m", [
        (f"time ratio for {size_ratio:.0f}x events",
         f"≈{size_ratio:.0f}", f"{ratio:.1f}")])
    assert ratio < 3 * size_ratio
    benchmark(lambda: IOStatistics(logs[SIZES[0]]))


def test_render_quadratic_in_m(benchmark):
    """Sec. V: rendering is O(m²) worst case — a complete DFG on m
    activities has m² edges; DOT emission must scale with edges."""
    def complete_dfg(m: int) -> DFG:
        edges = {(f"a{i}", f"a{j}"): 1
                 for i in range(m) for j in range(m)}
        return DFG.from_counts(edges)

    small_m, large_m = 20, 40
    small = min(_timed(lambda: render_dot(complete_dfg(small_m)))
                for _ in range(3))
    large = min(_timed(lambda: render_dot(complete_dfg(large_m)))
                for _ in range(3))
    ratio = large / small
    edge_ratio = (large_m / small_m) ** 2
    paper_vs_measured("Sec. V — render is O(m²) worst case", [
        (f"time ratio for {large_m}/{small_m} nodes",
         f"≈{edge_ratio:.0f} (m² edges)", f"{ratio:.1f}")])
    assert ratio < 3 * edge_ratio
    dfg = complete_dfg(small_m)
    benchmark(render_dot, dfg)


ACTIVITY_SWEEP = (100, 400, 1600)
EVENTS_PER_ACTIVITY = 40


def _activity_stages(m: int) -> dict:
    """The three analysis stages over a log with m activities."""
    log = synthetic_log(m * EVENTS_PER_ACTIVITY, n_activities=m) \
        .with_mapping(CallTopDirs(levels=3))
    dfg = DFG(log)
    stats = IOStatistics(log)
    coloring = StatisticsColoring(stats)
    return {
        "DFG": lambda: DFG(log),
        "IOStatistics": lambda: IOStatistics(log),
        "render_ascii": lambda: render_ascii(dfg, stats, coloring),
    }


@pytest.mark.bench
def test_analysis_linear_in_activities():
    """DFG, statistics and the statistics-coloured ASCII render grow
    linearly in the activity count at fixed events per activity."""
    stages = {m: _activity_stages(m) for m in ACTIVITY_SWEEP}
    small_m, large_m = ACTIVITY_SWEEP[0], ACTIVITY_SWEEP[-1]
    size_ratio = large_m / small_m
    rows = []
    for stage in stages[small_m]:
        small = min(_timed(stages[small_m][stage]) for _ in range(3))
        large = min(_timed(stages[large_m][stage]) for _ in range(3))
        ratio = large / small
        rows.append((stage, ratio))
    paper_vs_measured("Sec. V — analysis is linear in m", [
        (f"{stage} time ratio for {size_ratio:.0f}x activities",
         f"≈{size_ratio:.0f}", f"{ratio:.1f}") for stage, ratio in rows])
    for stage, ratio in rows:
        assert ratio < 3 * size_ratio, stage


#: Case counts of the statistics case sweep, at fixed events/activities.
CASE_SWEEP = (8, 2048)


@pytest.mark.bench
def test_statistics_flat_in_cases():
    """``IOStatistics`` time stays flat from 8 to 2048 cases over the
    same 80k events and 24 activities: per-(activity, case) Python
    work would grow with the ~256x more (activity, case) runs."""
    logs = {n: synthetic_log(80_000, n_cases=n)
            .with_mapping(CallTopDirs(levels=3)) for n in CASE_SWEEP}
    few, many = (min(_timed(lambda: IOStatistics(logs[n]))
                     for _ in range(3)) for n in CASE_SWEEP)
    ratio = many / few
    paper_vs_measured("Sec. V — statistics are flat in the case count", [
        (f"time ratio for {CASE_SWEEP[1] // CASE_SWEEP[0]}x cases",
         "≈1", f"{ratio:.1f}")])
    assert ratio < 2


SAVE_CASES = 16
#: Events per case before the timed saves: short vs long history.
SAVE_HISTORY = (100, 3200)


def _append_reads(path: Path, first: int, count: int) -> None:
    """Append ``count`` read events (every 100 us, over four files)."""
    with open(path, "a", encoding="utf-8") as handle:
        for i in range(first, first + count):
            us = i * 100
            handle.write(
                f"4242  10:00:{us // 1_000_000:02d}.{us % 1_000_000:06d}"
                f" read(3</data/d{i % 4}/f>, ..., 4096) = 4096"
                f" <0.000010>\n")


def _delta_save_seconds(directory: Path, history: int) -> float:
    """Best-of-7 save time after a one-case poll, at ``history``
    events per case (the first save, which encodes everything, is
    not timed)."""
    traces = directory / "traces"
    traces.mkdir(parents=True)
    paths = [traces / f"run_node01_{rid}.st" for rid in range(SAVE_CASES)]
    for path in paths:
        _append_reads(path, 0, history)
    engine = LiveIngest(traces, checkpoint=directory / "ckpt.json")
    engine.poll()
    engine.save_checkpoint()
    best = float("inf")
    for step in range(7):
        _append_reads(paths[0], history + step, 1)
        engine.poll()
        best = min(best, _timed(engine.save_checkpoint))
    return best


@pytest.mark.bench
def test_checkpoint_save_tracks_delta(tmp_path, monkeypatch):
    """A save after a poll that touched one case costs far less than
    the history ratio more at a long history: only the changed
    timeline is re-encoded. The durable write is stubbed out — it is
    a copy of the whole sidecar to disk in any design, O(sidecar
    bytes), and its fsync would drown the encoding in disk noise."""
    monkeypatch.setattr(durable, "write_bytes", lambda target, data: None)
    small_h, large_h = SAVE_HISTORY
    history_ratio = large_h / small_h
    small = _delta_save_seconds(tmp_path / "small", small_h)
    large = _delta_save_seconds(tmp_path / "large", large_h)
    ratio = large / small
    paper_vs_measured("Live checkpoint save encoding is O(delta)", [
        (f"save time ratio for {history_ratio:.0f}x history",
         f"<{history_ratio / 4:.0f}", f"{ratio:.1f}")])
    assert ratio < history_ratio / 4
