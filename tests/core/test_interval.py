"""Unit and property tests for interval/prefix arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.core.interval import (
    Interval,
    elementary_edges,
    interval_to_prefixes,
    prefix_to_interval,
    split_equal,
)


class TestIntervalBasics:
    def test_size(self):
        assert Interval(3, 7).size == 5
        assert Interval(4, 4).size == 1

    def test_contains(self):
        iv = Interval(10, 20)
        assert iv.contains(10) and iv.contains(20) and iv.contains(15)
        assert not iv.contains(9) and not iv.contains(21)

    def test_contains_interval(self):
        assert Interval(0, 100).contains_interval(Interval(10, 20))
        assert not Interval(10, 20).contains_interval(Interval(10, 21))

    def test_overlaps(self):
        assert Interval(0, 10).overlaps(Interval(10, 20))
        assert not Interval(0, 9).overlaps(Interval(10, 20))

    def test_alignment(self):
        assert Interval(8, 15).is_power_of_two_aligned()
        assert not Interval(8, 14).is_power_of_two_aligned()
        assert not Interval(9, 16).is_power_of_two_aligned()


class TestPrefixConversion:
    def test_full_prefix(self):
        assert prefix_to_interval(0, 0, 32) == Interval(0, 0xFFFFFFFF)

    def test_host_prefix(self):
        assert prefix_to_interval(0x0A000001, 32, 32) == Interval(0x0A000001, 0x0A000001)

    def test_slash8(self):
        assert prefix_to_interval(0x0A123456, 8, 32) == Interval(0x0A000000, 0x0AFFFFFF)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            prefix_to_interval(0, 33, 32)
        with pytest.raises(ValueError):
            prefix_to_interval(1 << 32, 8, 32)

    def test_expansion_simple(self):
        # [1, 14] over 4 bits: classic worst-ish case.
        prefixes = interval_to_prefixes(Interval(1, 14), 4)
        covered = set()
        for value, plen in prefixes:
            iv = prefix_to_interval(value, plen, 4)
            covered.update(range(iv.lo, iv.hi + 1))
        assert covered == set(range(1, 15))

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_expansion_covers_exactly(self, a, b):
        lo, hi = min(a, b), max(a, b)
        prefixes = interval_to_prefixes(Interval(lo, hi), 4)
        covered = []
        for value, plen in prefixes:
            iv = prefix_to_interval(value, plen, 4)
            covered.extend(range(iv.lo, iv.hi + 1))
        # Exact, disjoint cover.
        assert sorted(covered) == list(range(lo, hi + 1))
        assert len(covered) == len(set(covered))

    @given(st.integers(1, 16))
    def test_expansion_bound(self, width):
        # The classic 2*width - 2 worst case bound.
        iv = Interval(1, (1 << width) - 2) if width > 1 else Interval(0, 0)
        assert len(interval_to_prefixes(iv, width)) <= max(2 * width - 2, 1)


class TestSplitEqual:
    def test_split(self):
        parts = split_equal(Interval(0, 15), 4)
        assert parts == [Interval(0, 3), Interval(4, 7), Interval(8, 11), Interval(12, 15)]

    def test_uneven_rejected(self):
        with pytest.raises(ValueError):
            split_equal(Interval(0, 9), 4)

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            split_equal(Interval(0, 15), 0)

    @given(st.integers(1, 8), st.integers(0, 4))
    def test_split_partitions(self, logparts, logstep):
        size = 1 << (logparts + logstep)
        parts = split_equal(Interval(0, size - 1), 1 << logparts)
        assert parts[0].lo == 0 and parts[-1].hi == size - 1
        for left, right in zip(parts, parts[1:]):
            assert right.lo == left.hi + 1


class TestElementaryEdges:
    def test_empty(self):
        assert elementary_edges([], 8) == [0]

    def test_basic(self):
        edges = elementary_edges([Interval(5, 10), Interval(8, 20)], 8)
        assert edges == [0, 5, 8, 11, 21]

    def test_domain_clamp(self):
        edges = elementary_edges([Interval(0, 255)], 8)
        assert edges == [0]

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=6))
    def test_segments_have_constant_cover(self, pairs):
        intervals = [Interval(min(a, b), max(a, b)) for a, b in pairs]
        edges = elementary_edges(intervals, 8)
        bounds = edges + [256]
        for idx in range(len(edges)):
            lo, hi = bounds[idx], bounds[idx + 1] - 1
            cover_lo = {i for i, iv in enumerate(intervals) if iv.contains(lo)}
            cover_hi = {i for i, iv in enumerate(intervals) if iv.contains(hi)}
            mid = (lo + hi) // 2
            cover_mid = {i for i, iv in enumerate(intervals) if iv.contains(mid)}
            assert cover_lo == cover_hi == cover_mid
