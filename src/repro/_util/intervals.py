"""Interval arithmetic, including the paper's max-concurrency metric.

Sec. IV-B defines, for an activity ``a``, the list of event time ranges
``t_f(a, C) = [(start, start+dur), ...]`` and the statistic

    ``mc_f(a, C) = get_max_concurrency(t_f(a, C))``

i.e. the largest number of simultaneously in-flight events. The paper's
algorithm sorts by start time and scans; we implement the classic
sweep-line over +1/-1 boundary deltas, vectorized with NumPy
(:func:`max_concurrency`, and :func:`grouped_max_concurrency` for many
activities in one pass), plus a deliberately simple O(n²) reference
(:func:`max_concurrency_naive`) used by property-based tests and by the
ablation benchmark to validate and measure the optimization — following
the guide's rule that optimizations must be checked against a trivially
correct implementation.

Boundary convention: intervals are half-open ``[start, end)`` — an event
ending exactly when another starts does *not* overlap it. This matches
the paper's Fig. 5 reading (mc = 2 for the staggered reads) and makes
zero-duration events count as overlapping only events that strictly
contain their start instant plus other zero-duration events at the same
instant (handled via the tie-break ordering below).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np


def _as_arrays(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Split interval pairs into (starts, ends) float64 arrays."""
    arr = np.asarray(intervals, dtype=np.float64)
    if arr.size == 0:
        return np.empty(0), np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(
            f"expected an (n, 2) array of (start, end) pairs, got {arr.shape}")
    return _checked(arr[:, 0], arr[:, 1])


def _checked(starts: np.ndarray,
             ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` as float64, rejecting an end before its start
    (compared as floats, like every later step of the sweep)."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if np.any(ends < starts):
        raise ValueError("interval end precedes start")
    return starts, ends


def _boundaries(starts: np.ndarray, ends: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's ``(times, keys, deltas)`` over float64 intervals.

    +1 at starts, -1 at ends. The secondary key orders boundaries at
    equal times: end-of-other (key 0) < start (key 1) < end of a
    zero-length interval (key 2), so half-open intervals touching at
    an instant do not overlap while a zero-length interval still
    counts once at its own instant. Zero length is tested on the float
    values, so ends that round onto their start (above 2**53) count as
    zero-length.
    """
    n = starts.size
    times = np.concatenate([starts, ends])
    deltas = np.concatenate([np.ones(n, dtype=np.int64),
                             -np.ones(n, dtype=np.int64)])
    keys = np.concatenate([
        np.ones(n, dtype=np.int8),
        np.where(ends == starts, np.int8(2), np.int8(0)),
    ])
    return times, keys, deltas


def max_concurrency(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> int:
    """Maximum number of simultaneously active intervals (Eq. 16).

    Sweep-line: sort all boundaries (ordered as in :func:`_boundaries`)
    and take the maximum of the running sum of their deltas.

    Complexity O(n log n); fully vectorized.

    >>> max_concurrency([(0, 10), (5, 15), (20, 30)])
    2
    """
    starts, ends = _as_arrays(intervals)
    if starts.size == 0:
        return 0
    times, keys, deltas = _boundaries(starts, ends)
    order = np.lexsort((keys, times))
    return int(np.cumsum(deltas[order]).max())


def grouped_max_concurrency(starts: np.ndarray, ends: np.ndarray,
                            offsets: np.ndarray) -> np.ndarray:
    """:func:`max_concurrency` of many groups in one sweep.

    Group ``g`` owns rows ``offsets[g]:offsets[g + 1]`` (the last group
    runs to the end). Precondition, not checked: there is at least one
    row, and ``offsets`` starts at 0 and strictly increases below the
    row count, so no group is empty. One ``lexsort`` by (group, time,
    key) lays each group's boundaries out contiguously, one ``cumsum``
    runs over all of them, and ``np.maximum.reduceat`` takes each
    group's peak.
    The running count is back at zero at every group start because a
    group's +1 and -1 deltas cancel.

    >>> grouped_max_concurrency(np.array([0, 5, 0, 20]),
    ...                         np.array([10, 15, 10, 30]),
    ...                         np.array([0, 2])).tolist()
    [2, 1]
    """
    starts, ends = _checked(starts, ends)
    group = np.repeat(np.arange(offsets.size),
                      np.diff(np.append(offsets, starts.size)))
    times, keys, deltas = _boundaries(starts, ends)
    order = np.lexsort((keys, times, np.concatenate([group, group])))
    running = np.cumsum(deltas[order])
    return np.maximum.reduceat(running, 2 * offsets)


def max_concurrency_naive(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> int:
    """O(n²) reference implementation of :func:`max_concurrency`.

    For each interval, count intervals active at its start instant
    (half-open convention; zero-duration intervals are active at their
    own start). The maximum over all start instants equals the sweep
    result because concurrency only increases at start boundaries.
    """
    starts, ends = _as_arrays(intervals)
    best = 0
    for i in range(starts.size):
        t = starts[i]
        active = 0
        for j in range(starts.size):
            if starts[j] <= t and (t < ends[j]
                                   or (starts[j] == ends[j] == t)):
                active += 1
        best = max(best, active)
    return best


def total_covered(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> float:
    """Total length of the union of intervals (used by timeline axes)."""
    merged = merge_intervals(intervals)
    return float(sum(end - start for start, end in merged))


def merge_intervals(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> list[tuple[float, float]]:
    """Merge overlapping/touching intervals into a sorted disjoint list.

    >>> merge_intervals([(5, 7), (0, 2), (1, 3)])
    [(0.0, 3.0), (5.0, 7.0)]
    """
    starts, ends = _as_arrays(intervals)
    if starts.size == 0:
        return []
    order = np.argsort(starts, kind="stable")
    merged: list[tuple[float, float]] = []
    cur_start, cur_end = float(starts[order[0]]), float(ends[order[0]])
    for idx in order[1:]:
        s, e = float(starts[idx]), float(ends[idx])
        if s <= cur_end:
            cur_end = max(cur_end, e)
        else:
            merged.append((cur_start, cur_end))
            cur_start, cur_end = s, e
    merged.append((cur_start, cur_end))
    return merged


def concurrency_profile(
    intervals: Sequence[tuple[float, float]] | np.ndarray,
) -> list[tuple[float, int]]:
    """The full concurrency step function, not just its maximum.

    Returns ``[(time, active_count), ...]``: at each boundary time the
    number of active intervals *from* that instant (piecewise-constant
    until the next entry). The last entry always has count 0.
    Zero-length intervals are instantaneous spikes a pure step
    function cannot carry, so a boundary instant whose peak count
    exceeds its settled count emits *two* entries — ``(t, peak)``
    immediately followed by ``(t, settled)`` — which keeps
    ``max(count)`` over the profile equal to :func:`max_concurrency`
    on every input (a property the tests verify).

    >>> concurrency_profile([(0, 10), (5, 15)])
    [(0.0, 1), (5.0, 2), (10.0, 1), (15.0, 0)]
    >>> concurrency_profile([(3, 3)])
    [(3.0, 1), (3.0, 0)]
    """
    starts, ends = _as_arrays(intervals)
    if starts.size == 0:
        return []
    times, keys, deltas = _boundaries(starts, ends)
    order = np.lexsort((keys, times))
    sorted_times = times[order]
    sorted_keys = keys[order]
    running = np.cumsum(deltas[order])
    profile: list[tuple[float, int]] = []
    i = 0
    total = len(sorted_times)
    while i < total:
        j = i
        while j + 1 < total and sorted_times[j + 1] == sorted_times[i]:
            j += 1
        t = float(sorted_times[i])
        settled = int(running[j])
        # The instantaneous count *at* t is the running value after the
        # last start (key 1): every interval active at t has been
        # opened, and only zero-length ends (key 2) follow. It exceeds
        # the settled count exactly when zero-length intervals spiked.
        starts_at = np.flatnonzero(sorted_keys[i:j + 1] == 1)
        peak = (int(running[i + int(starts_at[-1])])
                if starts_at.size else settled)
        if peak > settled:
            profile.append((t, peak))
        profile.append((t, settled))
        i = j + 1
    return profile


def span(
    intervals: Iterable[tuple[float, float]],
) -> tuple[float, float] | None:
    """Smallest (min start, max end) covering all intervals, or None."""
    lo: float | None = None
    hi: float | None = None
    for start, end in intervals:
        lo = start if lo is None else min(lo, start)
        hi = end if hi is None else max(hi, end)
    if lo is None or hi is None:
        return None
    return (lo, hi)
