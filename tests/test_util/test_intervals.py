"""Interval sweep-line — the max-concurrency metric (Eq. 14-16)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.intervals import (
    grouped_max_concurrency,
    max_concurrency,
    max_concurrency_naive,
    merge_intervals,
    span,
    total_covered,
)


class TestMaxConcurrency:
    def test_empty(self):
        assert max_concurrency([]) == 0

    def test_single(self):
        assert max_concurrency([(0, 10)]) == 1

    def test_disjoint(self):
        assert max_concurrency([(0, 1), (2, 3), (4, 5)]) == 1

    def test_nested(self):
        assert max_concurrency([(0, 100), (10, 20), (30, 40)]) == 2

    def test_all_overlapping(self):
        assert max_concurrency([(0, 10), (1, 9), (2, 8)]) == 3

    def test_paper_fig5_stagger(self):
        """The Fig. 5 situation: staggered reads overlapping pairwise
        but never three ways → mc = 2."""
        intervals = [(0, 187), (150, 337), (300, 487)]
        assert max_concurrency(intervals) == 2

    def test_half_open_touching_does_not_overlap(self):
        # An event ending exactly when another starts: no concurrency.
        assert max_concurrency([(0, 10), (10, 20)]) == 1

    def test_zero_duration_counts_once(self):
        assert max_concurrency([(5, 5)]) == 1

    def test_zero_duration_inside_long_interval(self):
        assert max_concurrency([(0, 10), (5, 5)]) == 2

    def test_two_zero_durations_same_instant(self):
        assert max_concurrency([(5, 5), (5, 5)]) == 2

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            max_concurrency([(10, 5)])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            max_concurrency(np.zeros((3, 3)))

    def test_numpy_input(self):
        arr = np.array([[0.0, 10.0], [5.0, 15.0]])
        assert max_concurrency(arr) == 2


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 50)).map(
        lambda se: (float(se[0]), float(se[0] + se[1]))),
    max_size=40,
)


class TestSweepMatchesNaive:
    @given(intervals_strategy)
    @settings(max_examples=200)
    def test_sweep_equals_naive_reference(self, intervals):
        """The O(n log n) sweep must agree with the O(n²) reference on
        arbitrary inputs — the guide's rule for validated optimization."""
        assert max_concurrency(intervals) == \
            max_concurrency_naive(intervals)

    @given(intervals_strategy)
    def test_bounds(self, intervals):
        mc = max_concurrency(intervals)
        assert 0 <= mc <= len(intervals)
        if intervals:
            assert mc >= 1


#: ``(start, dur)`` of one event: small shared instants (boundaries
#: coincide within and across groups, zero lengths are common) or
#: starts just past 2**53, where an end can round onto its start.
grouped_events = st.one_of(
    st.tuples(st.integers(0, 20), st.integers(0, 8)),
    st.tuples(st.integers(2**53 - 4, 2**53 + 4), st.integers(0, 3)),
    st.tuples(st.integers(0, 20), st.integers(2**53, 2**62)))


def _grouped(groups):
    """Flat int64 ``(starts, ends, offsets)`` of per-group events."""
    rows = [event for group in groups for event in group]
    starts = np.array([s for s, _ in rows], dtype=np.int64)
    ends = np.array([s + d for s, d in rows], dtype=np.int64)
    offsets = np.cumsum([0, *map(len, groups[:-1])])
    return starts, ends, offsets


class TestGroupedMaxConcurrency:
    """The one-sweep Eq. 16 of every activity of a batch pass."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(grouped_events, min_size=1, max_size=12),
                    min_size=1, max_size=8))
    def test_equals_naive_per_group(self, groups):
        starts, ends, offsets = _grouped(groups)
        expected = [max_concurrency_naive([(s, s + d) for s, d in group])
                    for group in groups]
        assert grouped_max_concurrency(starts, ends, offsets).tolist() \
            == expected

    def test_shared_boundaries_stay_per_group(self):
        """A group ending where the next one starts, and identical
        groups side by side, count only their own intervals."""
        groups = [[(0, 5), (0, 5)], [(5, 5)], [(5, 0), (5, 0), (0, 9)],
                  [(3, 0)]]
        starts, ends, offsets = _grouped(groups)
        assert grouped_max_concurrency(starts, ends, offsets).tolist() \
            == [2, 1, 3, 1]

    def test_end_rounding_onto_start_is_zero_length(self):
        """Above 2**53 an end one past its start rounds onto it: both
        routes then see a zero-length interval, counted at its instant
        next to a touching one."""
        start = 2**53 + 1
        groups = [[(start - 1, 1), (start, 1)]]
        starts, ends, offsets = _grouped(groups)
        assert grouped_max_concurrency(starts, ends, offsets).tolist() \
            == [max_concurrency_naive([(start - 1, start),
                                       (start, start + 1)])] == [2]

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            grouped_max_concurrency(np.array([0, 10]), np.array([5, 5]),
                                    np.array([0, 1]))


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_sorted(self):
        assert merge_intervals([(5, 7), (0, 2), (1, 3)]) == \
            [(0.0, 3.0), (5.0, 7.0)]

    def test_touching_merge(self):
        assert merge_intervals([(0, 5), (5, 10)]) == [(0.0, 10.0)]

    def test_contained(self):
        assert merge_intervals([(0, 100), (10, 20)]) == [(0.0, 100.0)]

    @given(intervals_strategy)
    def test_merged_are_disjoint_and_sorted(self, intervals):
        merged = merge_intervals(intervals)
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2

    @given(intervals_strategy)
    def test_total_covered_invariant(self, intervals):
        """Union length ≤ sum of lengths; equal iff no overlap."""
        covered = total_covered(intervals)
        total = sum(e - s for s, e in intervals)
        assert covered <= total + 1e-9


class TestSpan:
    def test_empty(self):
        assert span([]) is None

    def test_basic(self):
        assert span([(5, 7), (0, 2)]) == (0, 7)


class TestConcurrencyProfile:
    def test_docstring_example(self):
        from repro._util.intervals import concurrency_profile
        assert concurrency_profile([(0, 10), (5, 15)]) == [
            (0.0, 1), (5.0, 2), (10.0, 1), (15.0, 0)]

    def test_empty(self):
        from repro._util.intervals import concurrency_profile
        assert concurrency_profile([]) == []

    def test_ends_at_zero(self):
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile([(0, 3), (1, 2), (5, 9)])
        assert profile[-1][1] == 0

    def test_half_open_touching(self):
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile([(0, 5), (5, 10)])
        assert (5.0, 1) in profile
        assert all(count <= 1 for _, count in profile)

    @given(st.lists(
        st.tuples(st.integers(0, 100), st.integers(1, 30)).map(
            lambda se: (float(se[0]), float(se[0] + se[1]))),
        min_size=1, max_size=30))
    def test_profile_max_equals_sweep(self, intervals):
        """For positive-length intervals, the profile's max equals
        max_concurrency."""
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile(intervals)
        assert max(c for _, c in profile) == max_concurrency(intervals)

    @given(st.lists(
        st.tuples(st.integers(0, 100), st.integers(1, 30)).map(
            lambda se: (float(se[0]), float(se[0] + se[1]))),
        min_size=1, max_size=30))
    def test_profile_times_strictly_increasing(self, intervals):
        """Positive-length intervals never need spike entries, so
        times stay strictly increasing."""
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile(intervals)
        times = [t for t, _ in profile]
        assert times == sorted(set(times))

    def test_zero_length_spike_is_emitted(self):
        """Regression: a zero-length interval used to vanish from the
        profile entirely, so max(profile) != max_concurrency."""
        from repro._util.intervals import concurrency_profile
        assert concurrency_profile([(3, 3)]) == [(3.0, 1), (3.0, 0)]

    def test_zero_length_spike_inside_long_interval(self):
        from repro._util.intervals import concurrency_profile
        intervals = [(0, 10), (5, 5)]
        profile = concurrency_profile(intervals)
        assert (5.0, 2) in profile
        assert (5.0, 1) in profile  # settles back to the long interval

    def test_zero_length_at_boundary_of_touching_intervals(self):
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile([(0, 5), (5, 10), (5, 5)])
        assert max(count for _, count in profile) == \
            max_concurrency([(0, 5), (5, 10), (5, 5)])

    @given(st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 30)).map(
            lambda se: (float(se[0]), float(se[0] + se[1]))),
        min_size=1, max_size=30))
    def test_profile_max_equals_sweep_with_zero_lengths(self,
                                                       intervals):
        """The satellite regression property: with spike entries the
        profile's max equals max_concurrency on *all* inputs,
        zero-duration events included."""
        from repro._util.intervals import concurrency_profile
        profile = concurrency_profile(intervals)
        assert max(c for _, c in profile) == max_concurrency(intervals)
        assert profile[-1][1] == 0
