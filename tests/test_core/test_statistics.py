"""Activity statistics rd_f / b_f / dr̄_f / mc_f (Sec. IV-B)."""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import ReproError
from repro.core.eventlog import EventLog
from repro.core.frame import MISSING
from repro.core.mapping import CallTopDirs
from repro.core.partition import PartitionEL
from repro.core.statistics import (
    ActivityStats,
    IOStatistics,
    StatsAccumulator,
)
from tests.strategies import SMALL_TIMINGS, event_frames

#: Row timings at the edges of the Eq. 13 rate range: 2⁶²-byte
#: transfers in 1 µs next to 1-byte transfers over ~2⁶² µs, so rate
#: sums span ~2¹⁶⁰ and need several ``fsum`` passes to fold exactly,
#: and byte/duration sums leave the int64 range; starts near 2⁶³ put
#: ``start + dur`` interval ends past it.
EXTREME_TIMINGS = st.one_of(
    SMALL_TIMINGS,
    st.tuples(st.integers(min_value=0, max_value=10**6), st.just(1),
              st.integers(min_value=2**61, max_value=2**62 - 1)),
    st.tuples(st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=2**61, max_value=2**62),
              st.just(1)),
    st.tuples(st.integers(min_value=2**63 - 2**62, max_value=2**63 - 1),
              st.integers(min_value=1, max_value=2**62),
              st.integers(min_value=0, max_value=10**6)))


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


#: ``ActivityStats`` field names, in ``astuple`` order.
STATS_FIELDS = tuple(f.name for f in dataclasses.fields(ActivityStats))
#: The fields interval windowing turns into an upper bound and its flag.
WINDOWED = ("max_concurrency", "approximate")


def event_rates(frame, activity: str) -> list[float]:
    """The Eq. 13 per-event rates ``size/dur`` of one activity."""
    code = frame.pools.activities.lookup(activity)
    dur, size = frame.column("dur"), frame.column("size")
    rated = ((frame.column("activity") == code) & (size != MISSING)
             & (dur > 0))
    return (size[rated] / (dur[rated] / 1e6)).tolist()


def exact_total(values) -> Fraction:
    """The exact rational sum of some floats."""
    return sum(map(Fraction, values), Fraction(0))


def stats_bits(stats: IOStatistics, skip: tuple[str, ...] = ()
               ) -> list[tuple]:
    """Every ``ActivityStats`` field not in ``skip``, with floats as
    their exact hex."""
    return [tuple(v.hex() if isinstance(v, float) else v
                  for field, v in zip(STATS_FIELDS,
                                      dataclasses.astuple(stats[a]))
                  if field not in skip)
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
    """The accumulator layer behind live statistics, and the
    reference for batch statistics."""

    def _mapped_log(self, fig1_dir) -> EventLog:
        log = EventLog.from_source(fig1_dir)
        log.apply_mapping_fn(CallTopDirs(levels=2))
        return log

    def test_event_by_event_feed_equals_frame_feed(self, fig1_dir):
        """Feeding one event at a time (the live road) produces
        field-identical statistics to the whole-frame reductions (the
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
        """Batch ``IOStatistics`` equals per-event ``feed_event`` on any
        frame and on its ``filtered_cids``/``PartitionEL`` sub-logs:
        floats bit-equal, int sums past int64, timelines. Windowed
        feeds keep every scalar exact; every feed survives a JSON
        ``to_state``/``from_state`` round trip, and its rate partials
        sum exactly to the true rate total."""
        log = EventLog(frame, CallTopDirs())
        cids = log.cids()
        logs = [log, log.filtered_cids(cids[:1])]
        if len(cids) > 1:
            logs.extend(PartitionEL(log, green_cids=cids[:1]))
        for sub in logs:
            pools = sub.frame.pools
            case_order = [pools.cases.decode(c)
                          for c in range(len(pools.cases))]
            batch = IOStatistics(sub)
            live_acc = feed_rows(StatsAccumulator(window=window),
                                 sub.frame)
            live = live_acc.statistics(case_order=case_order)
            revived = StatsAccumulator.from_state(
                json.loads(json.dumps(live_acc.to_state())),
                window=window).statistics(case_order=case_order)
            assert batch.activities() == live.activities()
            assert batch.total_duration_us == live.total_duration_us
            if window is None:
                assert stats_bits(live) == stats_bits(batch)
                for activity in batch.activities():
                    assert live.timeline(activity) == \
                        batch.timeline(activity), activity
            else:
                assert stats_bits(live, skip=WINDOWED) == \
                    stats_bits(batch, skip=WINDOWED)
            assert stats_bits(revived) == stats_bits(live)
            for activity in live.activities():
                assert revived.timeline(activity) == \
                    live.timeline(activity), activity
                assert exact_total(
                    live_acc._activities[activity]._rate_partials) == \
                    exact_total(event_rates(sub.frame, activity))

    def test_state_roundtrip(self, fig1_dir):
        log = self._mapped_log(fig1_dir)
        accumulator = feed_rows(StatsAccumulator(), log.frame)
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
        accumulator = feed_rows(StatsAccumulator(), log.frame)
        batch = IOStatistics(log)
        implicit = accumulator.statistics()
        for activity in batch.activities():
            assert implicit.timeline(activity) == \
                batch.timeline(activity)
