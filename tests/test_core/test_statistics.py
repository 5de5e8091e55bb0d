"""Activity statistics rd_f / b_f / dr̄_f / mc_f (Sec. IV-B)."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import ReproError
from repro.core.eventlog import EventLog
from repro.core.frame import MISSING
from repro.core.mapping import CallTopDirs
from repro.core.statistics import (
    IOStatistics,
    StatsAccumulator,
    _exact_sum_many,
    _exact_sum_step,
)
from tests.strategies import SMALL_TIMINGS, event_frames

#: Row timings at the edges of the Eq. 13 rate range: 2⁶²-byte
#: transfers in 1 µs next to 1-byte transfers over ~2⁶² µs, so rate
#: sums span ~2¹⁶⁰ and need several ``fsum`` passes to fold exactly,
#: and byte/duration sums leave the int64 range.
EXTREME_TIMINGS = st.one_of(
    SMALL_TIMINGS,
    st.tuples(st.integers(min_value=0, max_value=10**6), st.just(1),
              st.integers(min_value=2**61, max_value=2**62 - 1)),
    st.tuples(st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=2**61, max_value=2**62),
              st.just(1)))


def feed_rows(accumulator: StatsAccumulator, frame) -> StatsAccumulator:
    """Fold a frame one row at a time through ``feed_event`` — the
    live road, in frame order."""
    pools = frame.pools
    for row in range(len(frame)):
        code = int(frame.column("activity")[row])
        if code == MISSING:
            continue
        dur = int(frame.column("dur")[row])
        size = int(frame.column("size")[row])
        accumulator.feed_event(
            pools.activities.decode(code),
            pools.cases.decode(int(frame.column("case")[row])),
            rid=int(frame.column("rid")[row]),
            start_us=int(frame.column("start")[row]),
            dur_us=None if dur == MISSING else dur,
            size=None if size == MISSING else size)
    return accumulator


def exact_total(values) -> Fraction:
    """The exact rational sum of some floats."""
    return sum(map(Fraction, values), Fraction(0))


def stats_bits(stats: IOStatistics) -> list[tuple]:
    """Every ``ActivityStats`` field with floats as their exact hex."""
    return [tuple(v.hex() if isinstance(v, float) else v
                  for v in dataclasses.astuple(stats[a]))
            for a in stats.activities()]


@pytest.fixture()
def stats(fig1_dir) -> IOStatistics:
    log = EventLog.from_source(fig1_dir)
    log.apply_mapping_fn(CallTopDirs(levels=2))
    return IOStatistics(log)


@pytest.fixture()
def ca_stats(fig1_dir) -> IOStatistics:
    log = EventLog.from_source(fig1_dir, cids={"a"})
    log.apply_mapping_fn(CallTopDirs(levels=2))
    return IOStatistics(log)


class TestRelativeDuration:
    def test_sums_to_one(self, stats):
        total = sum(stats[a].relative_duration for a in stats.activities())
        assert total == pytest.approx(1.0)

    def test_eq8_exact_value(self, ca_stats):
        """rd for read:/usr/lib over Ca: the three lib reads total
        (203+79+87) µs per case; denominator is the case total."""
        per_case_total = 203 + 79 + 87 + 52 + 40 + 41 + 44 + 111
        expected = (203 + 79 + 87) / per_case_total
        assert ca_stats["read:/usr/lib"].relative_duration == \
            pytest.approx(expected)

    def test_total_duration_denominator(self, ca_stats):
        per_case_total = 203 + 79 + 87 + 52 + 40 + 41 + 44 + 111
        assert ca_stats.total_duration_us == 3 * per_case_total

    def test_ordering_by_load(self, stats):
        ordered = stats.activities()
        values = [stats[a].relative_duration for a in ordered]
        assert values == sorted(values, reverse=True)


class TestBytes:
    def test_eq9_total_bytes(self, ca_stats):
        # 3 lib reads × 832 B × 3 cases.
        assert ca_stats["read:/usr/lib"].total_bytes == 3 * 3 * 832

    def test_eof_reads_count_zero_bytes(self, ca_stats):
        # /proc/filesystems: 478 + 0 per case.
        assert ca_stats["read:/proc/filesystems"].total_bytes == 3 * 478

    def test_load_label_format(self, ca_stats):
        label = ca_stats["read:/usr/lib"].load_label
        assert label.startswith("Load:0.5")
        assert "(7.49 KB)" in label


class TestProcessDataRate:
    def test_eq13_mean_of_event_rates(self, ca_stats):
        # Mean over the 9 lib-read events of size/dur (per case the
        # same three), in bytes/second.
        rates = [832 / (203e-6), 832 / (79e-6), 832 / (87e-6)]
        expected = sum(rates) / 3
        assert ca_stats["read:/usr/lib"].process_data_rate == \
            pytest.approx(expected, rel=1e-6)

    def test_zero_duration_events_excluded_from_rate(self, fig1_dir,
                                                     tmp_path):
        (tmp_path / "z_h_1.st").write_text(
            "1  00:00:00.000001 read(3</f>, ..., 10) = 10 <0.000000>\n"
            "1  00:00:00.000100 read(3</f>, ..., 10) = 10 <0.000010>\n")
        log = EventLog.from_source(tmp_path)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        assert stats["read:/f"].process_data_rate == \
            pytest.approx(10 / 10e-6)

    def test_zero_byte_transfer_is_a_real_zero_rate(self, tmp_path):
        """A size-0 read with positive duration measures 0.0 B/s —
        a legitimate rate, distinct from 'no transfers' (None)."""
        (tmp_path / "z_h_1.st").write_text(
            '1  00:00:00.000001 read(3</f>, "", 1024) = 0 <0.000040>\n')
        log = EventLog.from_source(tmp_path)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        record = stats["read:/f"]
        assert record.process_data_rate == 0.0
        assert record.has_transfers
        assert record.dr_label == "DR: 1x0.00 MB/s"
        # The metric accessor must not conflate 0.0 with None either.
        assert stats.metric("read:/f", "process_data_rate") == 0.0

    def test_metric_for_no_transfers_is_zero(self, tmp_path):
        (tmp_path / "z_h_1.st").write_text(
            "1  00:00:00.000001 lseek(3</f>, 0, SEEK_SET) = 0 "
            "<0.000002>\n")
        log = EventLog.from_source(tmp_path)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        assert stats["lseek:/f"].process_data_rate is None
        assert stats.metric("lseek:/f", "process_data_rate") == 0.0

    def test_no_transfer_activities_have_none(self, tmp_path):
        (tmp_path / "z_h_1.st").write_text(
            "1  00:00:00.000001 lseek(3</f>, 0, SEEK_SET) = 0 "
            "<0.000002>\n")
        log = EventLog.from_source(tmp_path)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        record = stats["lseek:/f"]
        assert record.process_data_rate is None
        assert not record.has_transfers
        assert record.dr_label is None
        assert record.load_label == "Load:1.00"  # no byte parenthetical


class TestMaxConcurrency:
    def test_identical_timestamps_give_case_count(self, fig1_dir):
        """The fig1 fixture replays identical timestamps per rank, so
        every activity is 3-concurrent within each command."""
        log = EventLog.from_source(fig1_dir, cids={"a"})
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        assert stats["read:/usr/lib"].max_concurrency == 3

    def test_staggered_simulated_ls_gives_two(self, ls_sim_dir):
        """The simulator staggers ranks by 150 µs → Fig. 5's mc = 2."""
        log = EventLog.from_source(ls_sim_dir, cids={"b"})
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats = IOStatistics(log)
        assert stats["read:/usr/lib"].max_concurrency == 2


class TestTimeline:
    def test_rows_are_case_tagged(self, ca_stats):
        rows = ca_stats.timeline("read:/usr/lib")
        assert len(rows) == 9
        assert {case for case, _, _ in rows} == \
            {"a9042", "a9043", "a9045"}
        for _, start, end in rows:
            assert end >= start

    def test_unknown_activity_rejected(self, ca_stats):
        with pytest.raises(ReproError):
            ca_stats.timeline("nope")


class TestAccessors:
    def test_getitem_unknown_rejected(self, stats):
        with pytest.raises(ReproError):
            stats["ghost"]

    def test_get_returns_none(self, stats):
        assert stats.get("ghost") is None

    def test_contains_and_len(self, stats):
        assert "read:/usr/lib" in stats
        assert len(stats) == 8

    def test_metric_accessor(self, stats):
        for name in ("relative_duration", "total_bytes",
                     "max_concurrency", "event_count",
                     "process_data_rate"):
            assert stats.metric("read:/usr/lib", name) >= 0

    def test_metric_unknown_rejected(self, stats):
        with pytest.raises(ReproError):
            stats.metric("read:/usr/lib", "banana")

    def test_ranks_and_cases(self, stats):
        record = stats["read:/etc/passwd"]
        assert record.ranks == 3   # only the three ls -l rids
        assert record.cases == 3

    def test_as_rows(self, stats):
        rows = stats.as_rows()
        assert len(rows) == 8
        assert {"activity", "events", "relative_duration",
                "total_bytes"} <= set(rows[0])

    def test_compute_replaces_previous(self, fig1_dir, stats):
        log = EventLog.from_source(fig1_dir, cids={"a"})
        log.apply_mapping_fn(CallTopDirs(levels=2))
        stats.compute_statistics(log)
        assert len(stats) == 4  # only the ls activities now

    def test_one_step_constructor(self, fig1_dir):
        log = EventLog.from_source(fig1_dir)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        assert len(IOStatistics(log)) == 8


class TestStatsAccumulator:
    """The accumulator layer behind both batch and live statistics."""

    def _mapped_log(self, fig1_dir) -> EventLog:
        log = EventLog.from_source(fig1_dir)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        return log

    def test_event_by_event_feed_equals_frame_feed(self, fig1_dir):
        """Feeding one event at a time (the live road) produces
        field-identical statistics to the vectorized frame feed (the
        batch road) — floats included, no approx."""
        log = self._mapped_log(fig1_dir)
        pools = log.frame.pools
        case_order = [pools.cases.decode(c)
                      for c in range(len(pools.cases))]
        batch = IOStatistics(log)
        live = feed_rows(StatsAccumulator(), log.frame) \
            .statistics(case_order=case_order)
        assert live.activities() == batch.activities()
        assert live.total_duration_us == batch.total_duration_us
        for activity in batch.activities():
            assert live[activity] == batch[activity], activity
            assert live.timeline(activity) == \
                batch.timeline(activity), activity

    @settings(max_examples=150, deadline=None)
    @given(frame=event_frames(max_cases=10, max_activities=16,
                              max_rows=80, timings=EXTREME_TIMINGS),
           window=st.sampled_from([None, 2, 3]))
    def test_frame_feed_equals_event_feed_on_random_frames(self, frame,
                                                           window):
        """The group fold of ``feed_frame`` equals per-event
        ``feed_event`` on any frame: floats bit-equal, int sums past
        int64, window coarsening, timelines and ``approximate``; and
        the fed state survives a JSON ``to_state``/``from_state``."""
        frame = EventLog(frame).frame
        pools = frame.pools
        case_order = [pools.cases.decode(c)
                      for c in range(len(pools.cases))]
        fed = StatsAccumulator(window=window).feed_frame(frame)
        batch = fed.statistics(case_order=case_order)
        live_acc = feed_rows(StatsAccumulator(window=window), frame)
        live = live_acc.statistics(case_order=case_order)
        revived = StatsAccumulator.from_state(
            json.loads(json.dumps(fed.to_state())), window=window) \
            .statistics(case_order=case_order)
        assert batch.activities() == live.activities()
        assert batch.total_duration_us == live.total_duration_us
        for activity in batch.activities():
            # Both roads' partials sum exactly to the true rate total,
            # so later events keep folding exactly on either.
            assert exact_total(
                fed._activities[activity]._rate_partials) == \
                exact_total(live_acc._activities[activity]._rate_partials)
        for other in (live, revived):
            assert stats_bits(other) == stats_bits(batch)
            for activity in batch.activities():
                assert other.timeline(activity) == \
                    batch.timeline(activity), activity

    def test_state_roundtrip(self, fig1_dir):
        log = self._mapped_log(fig1_dir)
        accumulator = StatsAccumulator().feed_frame(log.frame)
        revived = StatsAccumulator.from_state(accumulator.to_state())
        one = accumulator.statistics()
        two = revived.statistics()
        for activity in one.activities():
            assert one[activity] == two[activity]
            assert one.timeline(activity) == two.timeline(activity)

    def test_default_case_order_is_lexicographic(self, fig1_dir):
        """Without an explicit order the flat-directory layout (case
        ids sorted) matches the frame interning order."""
        log = self._mapped_log(fig1_dir)
        accumulator = StatsAccumulator().feed_frame(log.frame)
        batch = IOStatistics(log)
        implicit = accumulator.statistics()
        for activity in batch.activities():
            assert implicit.timeline(activity) == \
                batch.timeline(activity)


class TestExactSum:
    """The Eq. 13 rate sum folds exactly, one value or many at once."""

    def test_multi_pass_fold_is_exact(self):
        """Each term is below half an ulp of the running total, so
        every ``fsum`` pass leaves a remainder for the next."""
        values = [1.0, 2.0 ** -60, 2.0 ** -120, 2.0 ** -180, 2.0 ** -240]
        partials: list[float] = []
        _exact_sum_many(partials, values)
        assert len(partials) == len(values)
        assert exact_total(partials) == exact_total(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300,
                              allow_nan=False), max_size=6),
           st.lists(st.floats(min_value=-1e300, max_value=1e300,
                              allow_nan=False)))
    def test_many_equals_stepping_each_value(self, before, values):
        """Folding a batch keeps the partials summing exactly to the
        true total, so ``fsum`` of them is what per-value stepping
        gives — bit for bit."""
        stepped: list[float] = []
        for value in before:
            _exact_sum_step(stepped, value)
        batched = list(stepped)
        for value in values:
            _exact_sum_step(stepped, value)
        _exact_sum_many(batched, values)
        assert exact_total(batched) == exact_total(before) + \
            exact_total(values)
        assert math.fsum(batched).hex() == math.fsum(stepped).hex()
