"""Activity statistics (Sec. IV-B): Load and DR node annotations.

For every activity ``a ∈ A_f`` occurring in an event-log ``C``:

- **relative duration** ``rd_f(a, C)`` (Eq. 6-8): the summed duration of
  the events in ``f⁻¹(a)`` divided by the summed duration over *all*
  activities — "the proportion of system time spent relative to the
  other activities";
- **total bytes moved** ``b_f(a, C)`` (Eq. 9): sum of the ``size``
  attribute (only read/write variants carry one);
- **process data rate** ``dr̄_f(a, C)`` (Eq. 11-13): the arithmetic mean
  over events of the per-event rate ``size/dur`` — the average
  per-process transfer speed;
- **max concurrency** ``mc_f(a, C)`` (Eq. 14-16): the largest number of
  simultaneously in-flight events of the activity, via the sweep-line
  of :func:`repro._util.intervals.max_concurrency`;
- plus **ranks** (distinct rids — the unexplained ``Ranks:`` annotation
  of Fig. 3c, see DESIGN.md §6), **cases**, and the raw counts.

The node labels in the paper's figures combine these as
``Load: rd (bytes)`` and ``DR: mc × rate`` (Eq. 10/17); the renderers
call :meth:`IOStatistics.load_label` / :meth:`IOStatistics.dr_label`
to produce exactly those strings.

Architecture: two routes compute the same statistics. The batch route
(:meth:`IOStatistics.compute_statistics`) reduces a whole mapped frame
at once with NumPy. The live route folds events one at a time through
per-activity :class:`ActivityAccumulator` objects managed by a
:class:`StatsAccumulator` (:meth:`StatsAccumulator.feed_event`, which
the live engine calls at seal time); that is what lets a watcher
render full-history statistics at O(delta) per refresh and lets
checkpoints persist statistics across process restarts
(:mod:`repro.live.checkpoint`). The accumulators are also the
reference the batch route is tested against: on any frame, both give
identical :class:`IOStatistics`, float bit patterns and timelines
included (``tests/test_core/test_statistics.py``).

Complexity of the batch pass: the O(mn) of Sec. V as whole-frame
reductions. One stable sort groups the mapped rows by activity (the
frame is case-major and start-sorted, so each group keeps that order);
counts are segment lengths; duration and byte sums are int64
``np.add.reduceat`` (Python-int sums when int64 could wrap); distinct
rids and cases are counted from unique (group, value) pairs; Eq. 16
max concurrency is one grouped sweep for all activities
(:func:`repro._util.intervals.grouped_max_concurrency`); the Eq. 13
mean is one ``math.fsum`` per activity. The Python-level cost is
O(activities), not O(events) or O((activity, case) runs). Eq. 15
timelines stay slices of the sorted columns until
:meth:`IOStatistics.timeline` asks for one.

On the live route, derived per-activity scalars (max concurrency, mean
rate) are cached and recomputed only for activities that received
events since the last assembly, and timeline rows are materialized
lazily from the append-only per-case buffers.

Memory of the live route. Scalar state is O(activities): the Eq. 13 mean
is folded through exact non-overlapping partial sums (Shewchuk's
algorithm, the machinery behind :func:`math.fsum`), so the mean of the
per-event rates is bit-exact — the correctly rounded true sum divided by
the count — without buffering a float per event, and independent of the
order events were folded in. The only O(events) state left is the
per-case ``[start, end]`` interval buffers behind Eq. 15/16. Passing
``window=`` caps those: a per-case buffer exceeding the cap is coarsened
by merging adjacent intervals, which bounds watcher memory for week-long
runs at the price of *approximate* max concurrency and timelines
(flagged via :attr:`ActivityStats.approximate` and rendered with a
``~``); every scalar statistic — counts, sums, relative duration, the
mean rate — stays exact and bit-identical to the unwindowed computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro._util.errors import ReproError
from repro._util.intervals import grouped_max_concurrency, max_concurrency
from repro._util.jsontext import object_parts
from repro._util.sizes import format_bytes, format_rate
from repro.core.frame import MISSING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.eventlog import EventLog


#: Every per-activity metric addressable by name through
#: :meth:`IOStatistics.metric` — the vocabulary of statistics-based
#: coloring and of the ``stat_threshold`` alerting rule
#: (:mod:`repro.alerts`). Keep in sync with the accessor below.
METRIC_NAMES: tuple[str, ...] = (
    "relative_duration",
    "total_bytes",
    "max_concurrency",
    "event_count",
    "process_data_rate",
)


@dataclass(frozen=True, slots=True)
class ActivityStats:
    """Computed statistics of one activity."""

    activity: str
    event_count: int
    total_dur_us: int
    relative_duration: float
    total_bytes: int
    has_transfers: bool
    process_data_rate: float | None  #: mean bytes/second, None w/o transfers
    max_concurrency: int
    ranks: int
    cases: int
    #: True when interval windowing coarsened this activity's history:
    #: ``max_concurrency`` (and the Eq. 15 timeline) are then computed
    #: over merged intervals — an upper bound, not the exact sweep.
    #: Scalar statistics are exact regardless.
    approximate: bool = False

    @property
    def load_label(self) -> str:
        """``Load:0.22 (14.98 KB)`` — Eq. 10 / Fig. 3 node line.

        Activities without transfer events (e.g. ``openat``) render the
        relative duration only, as in Fig. 8a.
        """
        base = f"Load:{self.relative_duration:.2f}"
        if self.has_transfers:
            return f"{base} ({format_bytes(self.total_bytes)})"
        return base

    @property
    def dr_label(self) -> str | None:
        """``DR: 2x10.15 MB/s`` — Eq. 17 / Fig. 3 node line.

        None for activities without a data rate (no transfer events).
        A windowed (coarsened) concurrency renders as ``DR: ~2x...`` —
        the rate is still exact, the multiplier is an upper bound.
        """
        if self.process_data_rate is None:
            return None
        marker = "~" if self.approximate else ""
        return (f"DR: {marker}{self.max_concurrency}x"
                f"{format_rate(self.process_data_rate)}")


def _exact_sum_step(partials: list[float], value: float) -> None:
    """Fold ``value`` into Shewchuk non-overlapping partial sums.

    The invariant: ``partials`` always sums — in *exact* real
    arithmetic — to the exact sum of every value folded so far (each
    two-float transform below is error-free). ``math.fsum(partials)``
    is therefore the correctly rounded true sum, identical no matter
    how the values were ordered or split — the same value the batch
    route's one ``math.fsum`` per activity gives. That is what makes
    the Eq. 13 mean reproducible bit-for-bit across the batch, live,
    and checkpoint-restore roads while keeping O(1) state per activity.
    """
    i = 0
    for y in partials:
        if abs(value) < abs(y):
            value, y = y, value
        high = value + y
        low = y - (high - value)
        if low:
            partials[i] = low
            i += 1
        value = high
    partials[i:] = [value]


class ActivityAccumulator:
    """Running statistics of one activity, updatable per event.

    Scalar statistics (counts, duration and byte sums, rank/case sets,
    the exact-sum partials behind the Eq. 13 mean) are folded
    directly. Order-sensitive state — the Eq. 15 timeline feeding the
    Eq. 16 concurrency sweep — is kept *per case*: within a case,
    live events arrive in their final start-timestamp order, so
    assembling cases in a deterministic order reproduces the batch
    sequence exactly regardless of how polls interleaved the cases.

    The derived scalars (max concurrency, mean rate) are cached under
    a dirty flag: an activity untouched since the last assembly costs
    O(1) to re-render. Timelines are *not* duplicated into the cache —
    the per-case buffers stay the only O(events) state, and
    :meth:`timeline_snapshot` materializes labeled rows on demand.

    ``window`` caps each per-case interval buffer: a buffer growing
    past the cap is coarsened in place (adjacent intervals merged
    pairwise), after which :attr:`approximate` latches True — the
    concurrency sweep and the timeline then describe merged spans.

    For checkpoint saves, the JSON of every per-case timeline is cached
    as ``(length, bytes)``: a buffer that only grew since the last save
    encodes just its new intervals (:meth:`state_parts`). Coarsening
    rewrites a buffer in place, so it drops that buffer's cached JSON.
    """

    __slots__ = ("activity", "window", "event_count", "dur_sum",
                 "bytes_sum", "has_transfers", "approximate", "rids",
                 "rate_count", "_rate_partials", "_case_timelines",
                 "_timeline_texts", "_dirty", "_view_key", "_view")

    def __init__(self, activity: str,
                 window: int | None = None) -> None:
        self.activity = activity
        self.window = window
        self.event_count = 0
        self.dur_sum = 0
        self.bytes_sum = 0
        self.has_transfers = False
        self.approximate = False
        self.rids: set[int] = set()
        #: Events contributing to the Eq. 13 mean (size and dur > 0).
        self.rate_count = 0
        #: Exact non-overlapping partial sums of the per-event rates
        #: (:func:`_exact_sum_step`): tiny, order-independent, and
        #: ``fsum`` of it is the correctly rounded true rate sum.
        self._rate_partials: list[float] = []
        #: case id -> [(start_us, end_us), ...] in sealed event order
        #: (coarsened in place once ``window`` is exceeded).
        self._case_timelines: dict[str, list[tuple[int, int]]] = {}
        #: case id -> (buffer length encoded, its intervals as JSON
        #: bytes without the enclosing brackets).
        self._timeline_texts: dict[str, tuple[int, bytes]] = {}
        self._dirty = True
        self._view_key: tuple[str, ...] = ()
        self._view: tuple[int, float | None] = (0, None)

    @property
    def case_ids(self) -> set[str]:
        """Cases holding at least one event of this activity."""
        return set(self._case_timelines)

    # -- folding -----------------------------------------------------------

    def add_event(self, case_id: str, *, rid: int, start_us: int,
                  dur_us: int | None, size: int | None) -> None:
        """Fold one event (live seal-time semantics: None = absent)."""
        self.event_count += 1
        end = start_us
        if dur_us is not None:
            self.dur_sum += dur_us
            end = start_us + dur_us
            if size is not None and dur_us > 0:
                _exact_sum_step(self._rate_partials,
                                size / (dur_us / 1e6))
                self.rate_count += 1
        if size is not None:
            self.has_transfers = True
            self.bytes_sum += size
        self.rids.add(rid)
        buffer = self._case_timelines.setdefault(case_id, [])
        buffer.append((start_us, end))
        if self.window is not None and len(buffer) > self.window:
            self._coarsen(case_id, buffer)
        self._dirty = True

    def _coarsen(self, case_id: str,
                 buffer: list[tuple[int, int]]) -> None:
        """Merge adjacent intervals pairwise until ``case_id``'s buffer
        fits the window again (dropping its cached JSON text).

        Starts stay sorted (each merged interval keeps the earlier
        start) and every original interval lies inside some merged one,
        so the sweep over the coarse buffer can only over-count
        concurrency — windowed ``mc`` is an upper bound on the exact
        Eq. 16 value, never an under-report.
        """
        while len(buffer) > self.window:
            buffer[:] = [
                (buffer[i][0],
                 max(buffer[i][1], buffer[i + 1][1])
                 if i + 1 < len(buffer) else buffer[i][1])
                for i in range(0, len(buffer), 2)]
        self._timeline_texts.pop(case_id, None)
        self.approximate = True

    # -- assembled view ----------------------------------------------------

    def view(self, ordered_cases: tuple[str, ...],
             ) -> tuple[int, float | None]:
        """``(max_concurrency, mean_rate)`` with the activity's cases
        laid out in ``ordered_cases`` order.

        Cached: recomputed only when events arrived since the last call
        or the case order changed (insertions of *other* cases never
        reorder this activity's cases, so live case arrival keeps the
        cache warm).
        """
        if not self._dirty and self._view_key == ordered_cases:
            return self._view
        flat: list[tuple[int, int]] = []
        for case_id in ordered_cases:
            flat.extend(self._case_timelines[case_id])
        mc = max_concurrency(np.array(flat, dtype=np.float64))
        if self.rate_count:
            mean_rate: float | None = (
                math.fsum(self._rate_partials) / self.rate_count)
        else:
            mean_rate = None
        self._view = (mc, mean_rate)
        self._view_key = ordered_cases
        self._dirty = False
        return self._view

    def timeline_snapshot(self, ordered_cases: tuple[str, ...],
                          ) -> "Callable[[], list[tuple[str, int, int]]]":
        """A zero-cost handle materializing the Eq. 15 rows on demand.

        Captures ``(case, buffer, length)`` triples — the per-case
        buffers are append-only, so the prefix of ``length`` entries is
        immutable and the handle stays a faithful point-in-time
        snapshot even while the accumulator keeps absorbing events.
        Materialization costs O(activity events) but allocates only
        when somebody actually asks for the timeline (Fig. 5 plots);
        rendering node labels never does.
        """
        captured = [(case_id, buffer, len(buffer))
                    for case_id in ordered_cases
                    for buffer in (self._case_timelines[case_id],)]

        def materialize() -> list[tuple[str, int, int]]:
            return [(case_id, start, end)
                    for case_id, buffer, length in captured
                    for start, end in buffer[:length]]

        return materialize

    # -- checkpoint state --------------------------------------------------

    def _scalar_state(self) -> dict:
        """The checkpoint state of everything but the timelines."""
        return {
            "event_count": self.event_count,
            "dur_sum": self.dur_sum,
            "bytes_sum": self.bytes_sum,
            "has_transfers": self.has_transfers,
            "approximate": self.approximate,
            "rids": sorted(self.rids),
            "rate_count": self.rate_count,
            "rate_partials": list(self._rate_partials),
        }

    def state_parts(self) -> list[bytes]:
        """This accumulator's :meth:`StatsAccumulator.to_state` entry
        as compact sorted-key JSON byte fragments.

        Scalars are encoded fresh (O(1) per activity); each timeline
        reuses its cached JSON and encodes only the intervals appended
        since the last call.
        """
        texts = self._timeline_texts
        cases = {}
        for case, rows in self._case_timelines.items():
            length, text = texts.get(case, (0, b""))
            if length != len(rows):
                tail = ",".join(
                    f"[{s},{e}]" for s, e in rows[length:]).encode()
                text = b"%b,%b" % (text, tail) if text else tail
                texts[case] = (len(rows), text)
            cases[case] = [b'{"timeline":[', text, b"]}"]
        return object_parts(self._scalar_state(),
                            {"cases": object_parts({}, cases)})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ActivityAccumulator({self.activity!r}, "
                f"{self.event_count} events, "
                f"{len(self._case_timelines)} cases)")


class StatsAccumulator:
    """Per-activity statistics folded incrementally — the engine behind
    the live :meth:`~repro.live.engine.LiveIngest.statistics`, and the
    reference for batch :meth:`IOStatistics.compute_statistics`.

    Feed events through :meth:`feed_event` (one sealed record at a
    time); then :meth:`statistics` assembles an :class:`IOStatistics`.
    Feeding commutes with assembly: any split of the same events over
    any interleaving of cases yields identical statistics,
    because all cross-case state is either order-free (integer sums,
    sets) or reassembled in the caller-supplied case order.

    State round-trips through :meth:`to_state` / :meth:`from_state`
    for the live checkpoint sidecar (version ≥ 2).

    ``window`` (optional, ≥ 2) bounds the per-case interval buffers:
    buffers exceeding it are coarsened and the affected activities
    report ``approximate=True`` concurrency/timelines. Scalar
    statistics — counts, sums, the Eq. 13 mean rate — are unaffected:
    they are folded exactly regardless of windowing.
    """

    def __init__(self, window: int | None = None) -> None:
        if window is not None and window < 2:
            raise ValueError(
                f"window must be >= 2 intervals, got {window}")
        self.window = window
        self._activities: dict[str, ActivityAccumulator] = {}

    def __len__(self) -> int:
        return len(self._activities)

    @property
    def total_duration_us(self) -> int:
        """Denominator of Eq. 8 over everything folded so far."""
        return sum(acc.dur_sum for acc in self._activities.values())

    def n_buffered_intervals(self) -> int:
        """Interval entries held across all per-case buffers — the
        memory the ``window`` cap bounds, surfaced as the
        ``interval_buffer_entries`` telemetry gauge so an operator can
        watch residency against the cap instead of guessing."""
        return sum(len(buffer)
                   for acc in self._activities.values()
                   for buffer in acc._case_timelines.values())

    def n_interval_buffers(self) -> int:
        """Per-(activity, case) buffers currently held — the divisor
        an auto-window policy needs to turn a whole-accumulator byte
        budget into a per-buffer cap."""
        return sum(len(acc._case_timelines)
                   for acc in self._activities.values())

    def approx_buffer_bytes(self) -> int:
        """Measured footprint of the interval buffers, in bytes.

        Per-entry cost is sampled from an actual resident entry
        (container slot + tuple + its two ints) rather than assumed,
        so the ``--memory-budget`` policy tracks what this interpreter
        actually pays per interval. Sums, sets and partials are not
        counted — they are O(activities), not O(events).
        """
        import sys

        entries = self.n_buffered_intervals()
        if entries == 0:
            return 0
        sample: tuple[int, int] | None = None
        for acc in self._activities.values():
            for buffer in acc._case_timelines.values():
                if buffer:
                    sample = buffer[-1]
                    break
            if sample is not None:
                break
        per_entry = 8 + sys.getsizeof(sample) \
            + sum(sys.getsizeof(v) for v in sample)
        return entries * per_entry

    def set_window(self, window: int | None) -> None:
        """Re-cap the per-case interval buffers in place.

        Shrinking coarsens oversized buffers immediately (same pairwise
        merge as feed-time overflow); growing merely relaxes the cap —
        already-coarsened history stays coarse, which is why affected
        activities keep reporting ``approximate=True``. Scalar
        statistics are untouched either way.
        """
        if window is not None and window < 2:
            raise ValueError(
                f"window must be >= 2 intervals, got {window}")
        self.window = window
        for acc in self._activities.values():
            acc.window = window
            if window is None:
                continue
            for case_id, buffer in acc._case_timelines.items():
                if len(buffer) > window:
                    acc._coarsen(case_id, buffer)
                    acc._dirty = True

    def _accumulator(self, activity: str) -> ActivityAccumulator:
        acc = self._activities.get(activity)
        if acc is None:
            acc = self._activities[activity] = \
                ActivityAccumulator(activity, window=self.window)
        return acc

    # -- feeding -----------------------------------------------------------

    def feed_event(self, activity: str, case_id: str, *, rid: int,
                   start_us: int, dur_us: int | None,
                   size: int | None) -> None:
        """Fold one mapped event (the live engine's seal-time call)."""
        self._accumulator(activity).add_event(
            case_id, rid=rid, start_us=start_us, dur_us=dur_us,
            size=size)

    # -- assembly ----------------------------------------------------------

    def statistics(self, case_order: Sequence[str] | None = None,
                   ) -> "IOStatistics":
        """Assemble the folded state into an :class:`IOStatistics`.

        ``case_order`` fixes the cross-case layout of the timelines
        (batch lays cases out in the frame's case interning order; the
        live engine passes its sorted-path order — identical for a
        directory that reached its final state). ``None`` falls back
        to lexicographic case-id order, which is deterministic but
        only matches batch for flat single-directory layouts.

        Cost: O(activities + events-of-touched-activities) — an
        activity that gained no events since the last assembly reuses
        its cached view.
        """
        if case_order is None:
            order_index: dict[str, int] = {}
        else:
            order_index = {case: i for i, case in enumerate(case_order)}
        total_dur = self.total_duration_us
        stats: dict[str, ActivityStats] = {}
        lazy: dict[str, Callable[[], list[tuple[str, int, int]]]] = {}
        for activity, acc in self._activities.items():
            ordered = tuple(sorted(
                acc._case_timelines,
                key=lambda c: (order_index[c], "") if c in order_index
                else (len(order_index), c)))
            mc, mean_rate = acc.view(ordered)
            stats[activity] = ActivityStats(
                activity=activity,
                event_count=acc.event_count,
                total_dur_us=acc.dur_sum,
                relative_duration=(acc.dur_sum / total_dur
                                   if total_dur > 0 else 0.0),
                total_bytes=acc.bytes_sum,
                has_transfers=acc.has_transfers,
                process_data_rate=mean_rate,
                max_concurrency=mc,
                ranks=len(acc.rids),
                cases=len(acc._case_timelines),
                approximate=acc.approximate,
            )
            lazy[activity] = acc.timeline_snapshot(ordered)
        result = IOStatistics()
        result._stats = stats
        result._lazy_timelines = lazy
        result._total_dur_us = total_dur
        return result

    # -- checkpoint state --------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable state (live checkpoint sidecars, v2+).

        Floats (the exact-sum rate partials) are stored as JSON
        numbers — ``repr``-based serialization round-trips IEEE
        doubles exactly, so restored statistics stay bit-identical to
        an uninterrupted run. The partials replace the per-case rate
        lists older sidecars carried: O(1)-ish per activity instead of
        one float per transfer event.
        """
        return {
            "activities": {
                activity: {
                    **acc._scalar_state(),
                    "cases": {
                        case: {"timeline": [[s, e] for s, e in rows]}
                        for case, rows
                        in sorted(acc._case_timelines.items())
                    },
                }
                for activity, acc in sorted(self._activities.items())
            },
        }

    def encode_state(self) -> str:
        """Exactly ``json.dumps(self.to_state(), sort_keys=True,
        separators=(",", ":"))`` — the sidecar's ``stats`` text."""
        return b"".join(self.state_parts()).decode()

    def state_parts(self) -> list[bytes]:
        """:meth:`encode_state` as UTF-8 fragments, at O(activities +
        cases + intervals appended since the last call) encoding cost:
        the per-timeline JSON is cached across calls
        (:meth:`ActivityAccumulator.state_parts`), so only joining the
        fragments touches the whole section.
        """
        activities = {activity: acc.state_parts()
                      for activity, acc in self._activities.items()}
        return object_parts({}, {"activities": object_parts({}, activities)})

    @classmethod
    def from_state(cls, state: dict,
                   window: int | None = None) -> "StatsAccumulator":
        """Rebuild from :meth:`to_state` output.

        Also accepts the pre-v4 sidecar layout (per-case ``rates``
        lists instead of ``rate_partials``): the legacy rates are
        folded into exact partials in sorted case order — lossless,
        because the exact sum is order-independent.
        """
        accumulator = cls(window=window)
        for activity, acc_state in state["activities"].items():
            acc = accumulator._accumulator(str(activity))
            acc.event_count = int(acc_state["event_count"])
            acc.dur_sum = int(acc_state["dur_sum"])
            acc.bytes_sum = int(acc_state["bytes_sum"])
            acc.has_transfers = bool(acc_state["has_transfers"])
            acc.approximate = bool(acc_state.get("approximate", False))
            acc.rids = {int(r) for r in acc_state["rids"]}
            if "rate_partials" in acc_state:
                acc.rate_count = int(acc_state["rate_count"])
                acc._rate_partials = [
                    float(p) for p in acc_state["rate_partials"]]
            for case, case_state in sorted(acc_state["cases"].items()):
                buffer = [(int(s), int(e))
                          for s, e in case_state["timeline"]]
                acc._case_timelines[str(case)] = buffer
                if window is not None and len(buffer) > window:
                    acc._coarsen(str(case), buffer)
                for rate in case_state.get("rates", ()):
                    _exact_sum_step(acc._rate_partials, float(rate))
                    acc.rate_count += 1
        return accumulator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StatsAccumulator({len(self._activities)} activities, "
                f"{sum(a.event_count for a in self._activities.values())}"
                f" events)")


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> list[int]:
    """Per-group sums of an int64 column (groups start at ``offsets``)
    as Python ints: ``np.add.reduceat`` when no sum can reach 2**63,
    else exact Python-int sums per group, so totals never wrap."""
    if max(-int(values.min()), int(values.max())) * values.size < 2**63:
        return np.add.reduceat(values, offsets).tolist()
    flat = values.tolist()
    bounds = [*offsets.tolist(), len(flat)]
    return [sum(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _distinct_counts(values: np.ndarray, first: np.ndarray) -> list[int]:
    """Distinct values per group (``first`` flags each group's first
    row). Repeats along a run are dropped before the sort — a case's
    rows share one case code and, from strace sources, one rid — so
    the sort sees about one pair per (activity, case) run."""
    keep = first.copy()
    keep[1:] |= values[1:] != values[:-1]
    group = (np.cumsum(first) - 1)[keep]
    kept = values[keep]
    order = np.lexsort((kept, group))
    group, kept = group[order], kept[order]
    new = np.ones(group.size, dtype=bool)
    new[1:] = (group[1:] != group[:-1]) | (kept[1:] != kept[:-1])
    return np.bincount(group[new]).tolist()


def _timeline_rows(pool, case: np.ndarray, start: np.ndarray,
                   end: np.ndarray) -> list[tuple[str, int, int]]:
    """Eq. 15 ``(case_id, start_us, end_us)`` rows from column slices."""
    return list(zip(pool.decode_all(case.tolist()), start.tolist(),
                    end.tolist()))


class IOStatistics:
    """Per-activity statistics over an event-log (paper Fig. 6, step 4).

    Usage mirrors the paper's listing::

        stats = IOStatistics()
        stats.compute_statistics(event_log)

    or the one-step form ``IOStatistics(event_log)``. Instances are
    point-in-time results; the live subsystem assembles them from a
    standing :class:`StatsAccumulator` instead of recomputing.
    """

    def __init__(self, event_log: "EventLog | None" = None) -> None:
        self._stats: dict[str, ActivityStats] = {}
        #: Materialized Eq. 15 rows, filled on first access per
        #: activity from the snapshot handles below.
        self._timelines: dict[str, list[tuple[str, int, int]]] = {}
        self._lazy_timelines: dict[
            str, Callable[[], list[tuple[str, int, int]]]] = {}
        self._total_dur_us = 0
        if event_log is not None:
            self.compute_statistics(event_log)

    # -- computation ---------------------------------------------------------

    def compute_statistics(self, event_log: "EventLog") -> "IOStatistics":
        """Compute all statistics; replaces any previous results.

        Whole-frame reductions over the mapped rows, grouped by one
        stable sort on the activity code. The frame is case-major and
        start-sorted (the :class:`~repro.core.eventlog.EventLog`
        invariant), so within a group the rows are already in Eq. 15
        timeline order: cases in interning order, then start order.
        The result equals feeding every row through
        :meth:`StatsAccumulator.feed_event` and assembling in that case
        order, floats bit for bit.
        """
        event_log._require_mapping()
        frame = event_log.frame
        rows, offsets = frame.groupby_activity()
        self._stats, self._lazy_timelines = {}, {}
        self._timelines, self._total_dur_us = {}, 0
        if rows.size == 0:
            return self
        first = np.zeros(rows.size, dtype=bool)
        first[offsets] = True
        case = frame.column("case")[rows]
        start = frame.column("start")[rows]
        dur = frame.column("dur")[rows]
        size = frame.column("size")[rows]
        transfer = size != MISSING
        dur = np.where(dur != MISSING, dur, 0)
        if int(start.max()) + int(dur.max()) < 2**63:
            end = start + dur
        else:  # exact Python-int ends past int64, as feed_event keeps
            end = start.astype(object) + dur.astype(object)
        rated = transfer & (dur > 0)
        rates = (size[rated] / (dur[rated] / 1e6)).tolist()
        dur_sums = _segment_sums(dur, offsets)
        self._total_dur_us = total_dur = sum(dur_sums)
        bounds = [*offsets.tolist(), rows.size]
        rate_bounds = [0, *np.cumsum(
            np.add.reduceat(rated, offsets)).tolist()]
        columns = zip(
            frame.pools.activities.decode_all(
                frame.column("activity")[rows[offsets]].tolist()),
            zip(bounds, bounds[1:]), zip(rate_bounds, rate_bounds[1:]),
            dur_sums,
            _segment_sums(np.where(transfer, size, 0), offsets),
            np.logical_or.reduceat(transfer, offsets).tolist(),
            grouped_max_concurrency(start, end, offsets).tolist(),
            _distinct_counts(frame.column("rid")[rows], first),
            _distinct_counts(case, first))
        pool = frame.pools.cases
        for (name, (lo, hi), (r_lo, r_hi), dur_sum, bytes_sum,
             has_transfers, mc, ranks, cases) in columns:
            self._stats[name] = ActivityStats(
                activity=name,
                event_count=hi - lo,
                total_dur_us=dur_sum,
                relative_duration=(dur_sum / total_dur
                                   if total_dur > 0 else 0.0),
                total_bytes=bytes_sum,
                has_transfers=has_transfers,
                process_data_rate=(math.fsum(rates[r_lo:r_hi])
                                   / (r_hi - r_lo) if r_hi > r_lo
                                   else None),
                max_concurrency=mc,
                ranks=ranks,
                cases=cases,
            )
            self._lazy_timelines[name] = partial(
                _timeline_rows, pool, case[lo:hi], start[lo:hi],
                end[lo:hi])
        return self

    # -- access -------------------------------------------------------------------

    def activities(self) -> list[str]:
        """Activities with computed statistics, sorted by descending
        relative duration (the paper's notion of importance)."""
        return sorted(self._stats,
                      key=lambda a: (-self._stats[a].relative_duration, a))

    def __getitem__(self, activity: str) -> ActivityStats:
        try:
            return self._stats[activity]
        except KeyError:
            raise ReproError(
                f"no statistics for activity {activity!r}; "
                f"known: {sorted(self._stats)[:5]}...") from None

    def __contains__(self, activity: str) -> bool:
        return activity in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def get(self, activity: str) -> ActivityStats | None:
        """Stats for the activity or None (sentinel nodes have none)."""
        return self._stats.get(activity)

    @property
    def total_duration_us(self) -> int:
        """Denominator of Eq. 8: Σ_a Σ_{e ∈ f⁻¹(a)} dur(e)."""
        return self._total_dur_us

    def relative_duration(self, activity: str) -> float:
        """rd_f(a, C) — Eq. 8."""
        return self[activity].relative_duration

    def total_bytes(self, activity: str) -> int:
        """b_f(a, C) — Eq. 9."""
        return self[activity].total_bytes

    def process_data_rate(self, activity: str) -> float | None:
        """dr̄_f(a, C) in bytes/second — Eq. 13."""
        return self[activity].process_data_rate

    def max_concurrency_of(self, activity: str) -> int:
        """mc_f(a, C) — Eq. 16."""
        return self[activity].max_concurrency

    def timeline(self, activity: str) -> list[tuple[str, int, int]]:
        """The t_f(a, C) list (Eq. 15) as (case_id, start_us, end_us).

        This is the input to the Fig. 5 timeline plot. Rows are
        materialized from the accumulator snapshot on first access —
        node-label rendering never pays for them.
        """
        rows = self._timelines.get(activity)
        if rows is None:
            snapshot = self._lazy_timelines.get(activity)
            if snapshot is None:
                raise ReproError(
                    f"no timeline for activity {activity!r}")
            rows = self._timelines[activity] = snapshot()
        return list(rows)

    def metric(self, activity: str, name: str) -> float:
        """Numeric metric accessor used by statistics-based coloring."""
        stats = self[activity]
        if name == "relative_duration":
            return stats.relative_duration
        if name == "total_bytes":
            return float(stats.total_bytes)
        if name == "max_concurrency":
            return float(stats.max_concurrency)
        if name == "event_count":
            return float(stats.event_count)
        if name == "process_data_rate":
            # A 0.0 rate is a real measurement (a zero-byte transfer
            # with positive duration), distinct from "no transfers".
            return (0.0 if stats.process_data_rate is None
                    else stats.process_data_rate)
        raise ReproError(
            f"unknown metric {name!r} (known: {', '.join(METRIC_NAMES)})")

    def as_rows(self) -> list[dict]:
        """All stats as dict rows (report/CSV export)."""
        return [
            {
                "activity": s.activity,
                "events": s.event_count,
                "total_dur_us": s.total_dur_us,
                "relative_duration": s.relative_duration,
                "total_bytes": s.total_bytes,
                "process_data_rate": s.process_data_rate,
                "max_concurrency": s.max_concurrency,
                "ranks": s.ranks,
                "cases": s.cases,
            }
            for s in (self._stats[a] for a in self.activities())
        ]
