"""The columnar EventFrame (DataFrame substitute)."""

import numpy as np
import pytest

from repro._util.errors import ReproError
from repro.core.frame import MISSING, EventFrame, FramePools
from repro.strace.reader import read_trace_dir


@pytest.fixture()
def frame(fig1_dir) -> EventFrame:
    return EventFrame.from_cases(read_trace_dir(fig1_dir))


class TestConstruction:
    def test_shape(self, frame):
        assert frame.n_events == 3 * 8 + 3 * 17

    def test_empty(self):
        empty = EventFrame.empty()
        assert len(empty) == 0
        assert empty.case_slices() == []

    def test_missing_column_rejected(self):
        pools = FramePools()
        with pytest.raises(ReproError, match="missing columns"):
            EventFrame(pools, {"start": np.zeros(1, dtype=np.int64)})

    def test_ragged_columns_rejected(self, frame):
        columns = {name: frame.column(name) for name in
                   ("case", "cid", "host", "rid", "pid", "call",
                    "start", "dur", "fp", "size", "activity")}
        columns["pid"] = columns["pid"][:-1]
        with pytest.raises(ReproError, match="ragged"):
            EventFrame(frame.pools, columns)

    def test_unknown_column_rejected(self, frame):
        with pytest.raises(ReproError):
            frame.column("bogus")

    def test_string_decoding(self, frame):
        calls = frame.decoded("call")
        assert set(calls) == {"read", "write"}

    def test_pools_shared_across_cases(self, frame):
        # The same path appears in all six cases but is pooled once.
        paths = list(frame.pools.paths)
        assert paths.count("/usr/lib/x86_64-linux-gnu/libc.so.6") == 1


class TestSelection:
    def test_fp_contains(self, frame):
        mask = frame.fp_contains("/usr/lib")
        sub = frame.select(mask)
        assert len(sub) == 6 * 3  # 3 lib reads per case, 6 cases
        assert all("/usr/lib" in p for p in sub.decoded("fp"))

    def test_fp_contains_no_match(self, frame):
        assert frame.fp_contains("/scratch").sum() == 0

    def test_fp_matches_predicate(self, frame):
        mask = frame.fp_matches(lambda p: p.endswith(".conf"))
        assert set(frame.select(mask).decoded("fp")) == \
            {"/etc/nsswitch.conf"}

    def test_call_in(self, frame):
        writes = frame.select(frame.call_in(["write"]))
        assert len(writes) == 3 * 1 + 3 * 4  # ls: 1 write; ls -l: 4

    def test_call_in_unknown_name(self, frame):
        assert frame.call_in(["mmap"]).sum() == 0

    def test_cid_in(self, frame):
        assert frame.select(frame.cid_in(["a"])).n_events == 24

    def test_time_window(self, frame):
        starts = frame.column("start")
        lo, hi = int(starts.min()), int(starts.max())
        assert frame.time_window(lo, hi + 1).all()
        assert frame.time_window(hi + 1, hi + 2).sum() == 0

    def test_selection_shares_pools(self, frame):
        sub = frame.select(frame.cid_in(["a"]))
        assert sub.pools is frame.pools


class TestGrouping:
    def test_case_slices_cover_all_rows(self, frame):
        slices = frame.case_slices()
        assert len(slices) == 6
        total = sum(len(rows) for _, rows in slices)
        assert total == len(frame)

    def test_case_slices_codes_correct(self, frame):
        for code, rows in frame.case_slices():
            assert (frame.column("case")[rows] == code).all()

    def test_sorted_within_cases(self, frame):
        ordered = frame.sorted_within_cases()
        for _, rows in ordered.case_slices():
            starts = ordered.column("start")[rows]
            assert (np.diff(starts) >= 0).all()

    def test_groupby_activity_excludes_unmapped(self, frame):
        codes = np.full(len(frame), MISSING, dtype=np.int32)
        codes[:5] = 0
        tagged = frame.with_activity_codes(codes)
        rows, offsets = tagged.groupby_activity()
        assert offsets.tolist() == [0]
        assert rows.tolist() == [0, 1, 2, 3, 4]

    def test_groupby_activity_codes_correct(self, frame):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, size=len(frame)).astype(np.int32)
        tagged = frame.with_activity_codes(codes)
        rows, offsets = tagged.groupby_activity()
        assert sorted(rows.tolist()) == list(range(len(frame)))
        groups = np.split(rows, offsets[1:])
        assert len(groups) == len(np.unique(codes))
        for group in groups:
            assert (codes[group] == codes[group[0]]).all()
            assert (np.diff(group) > 0).all()


class TestConcat:
    def test_concat_shared_pools(self, frame):
        first = frame.select(frame.cid_in(["a"]))
        second = frame.select(frame.cid_in(["b"]))
        merged = EventFrame.concat([first, second])
        assert len(merged) == len(frame)

    def test_concat_different_pools_rejected(self, fig1_dir):
        one = EventFrame.from_cases(read_trace_dir(fig1_dir))
        two = EventFrame.from_cases(read_trace_dir(fig1_dir))
        with pytest.raises(ReproError, match="pools"):
            EventFrame.concat([one, two])

    def test_concat_empty_list(self):
        assert len(EventFrame.concat([])) == 0

    def test_reencode_then_concat(self, fig1_dir):
        one = EventFrame.from_cases(read_trace_dir(fig1_dir, cids={"a"}))
        two = EventFrame.from_cases(read_trace_dir(fig1_dir, cids={"b"}))
        merged = EventFrame.concat([one, two.reencoded(one.pools)])
        assert len(merged) == 24 + 51
        assert merged.decoded("cid").count("b") == 51

    def test_reencode_preserves_strings(self, frame):
        fresh = FramePools()
        re_encoded = frame.reencoded(fresh)
        assert re_encoded.decoded("fp") == frame.decoded("fp")
        assert re_encoded.decoded("call") == frame.decoded("call")


class TestRowAccess:
    def test_event_materialization(self, frame):
        ordered = frame.sorted_within_cases()
        event = ordered.event(0)
        assert event.cid == "a"
        assert event.call == "read"
        assert event.size == 832

    def test_iter_events_count(self, frame):
        assert sum(1 for _ in frame.iter_events()) == len(frame)

    def test_with_activity_codes_length_checked(self, frame):
        with pytest.raises(ReproError):
            frame.with_activity_codes(np.zeros(3, dtype=np.int32))
