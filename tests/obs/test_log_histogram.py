"""LogHistogram: bounded buckets, bounded error, lossless merge."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import LogHistogram
from repro.obs.metrics import MetricsRegistry


def _fill(values):
    hist = LogHistogram("t")
    for value in values:
        hist.observe(value)
    return hist


def _reference_percentile(values, q):
    """Exact percentile over a sorted copy, same rank convention as the
    histogram: the smallest value whose rank covers ``q * n``."""
    ordered = sorted(values)
    need = q * len(ordered)
    rank = max(1, math.ceil(need))
    return ordered[min(rank, len(ordered)) - 1]


class TestBasics:
    def test_empty(self):
        hist = LogHistogram("t")
        assert hist.total == 0
        assert hist.percentile(0.5) == 0.0
        assert hist.max == 0.0 and hist.min == 0.0

    def test_exact_min_max_mean(self):
        hist = _fill([10.0, 20.0, 400.0])
        assert hist.min == 10.0
        assert hist.max == 400.0  # exact, not a bucket edge
        assert hist.mean == pytest.approx(430.0 / 3)

    def test_single_value_percentiles_are_exact(self):
        hist = _fill([60.0])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.percentile(q) == 60.0

    def test_nan_ignored_negative_clamped_to_zero_bucket(self):
        hist = _fill([float("nan"), -5.0, 0.0])
        assert hist.total == 2  # NaN dropped
        assert hist.counts == {LogHistogram.ZERO_BUCKET: 2}
        assert hist.percentile(0.5) == 0.0

    def test_percentiles_summary_shape(self):
        hist = _fill([1.0, 2.0, 3.0])
        summary = hist.percentiles()
        assert set(summary) == {"p50", "p90", "p99", "p999", "max"}
        assert summary["max"] == 3.0

    def test_to_dict_roundtrips_buckets(self):
        hist = _fill([5.0, 500.0])
        payload = hist.to_dict()
        assert payload["kind"] == "log"
        assert payload["total"] == 2
        assert sum(payload["buckets"].values()) == 2


class TestBoundedBuckets:
    def test_max_buckets_is_fixed_memory(self):
        # ~1400 buckets cover 24 decades at 4% resolution; the point is
        # that the bound exists and is small, whatever the data does.
        assert LogHistogram.MAX_BUCKETS < 1500

    def test_adversarial_range_respects_bound(self):
        hist = LogHistogram("t")
        # Denormals, zeros, huge values — 600+ decades of spread.
        for exp in range(-320, 309):
            hist.observe(10.0 ** exp)
        hist.observe(0.0)
        hist.observe(1e300)
        assert len(hist.counts) <= LogHistogram.MAX_BUCKETS
        assert hist.total == 631

    @given(st.lists(st.floats(min_value=0.0, max_value=1e308,
                              allow_nan=False), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_bucket_count_bounded_property(self, values):
        hist = _fill(values)
        assert len(hist.counts) <= LogHistogram.MAX_BUCKETS
        assert hist.total == len(values)


def _reference_fill(values):
    """The bucket formula ``observe`` had before it was inlined (clamp
    the value, then clamp ``floor(log_g(value))`` into the index range),
    kept as the reference: every observation must land in the same
    bucket and feed the same total, sum, min and max."""
    h = LogHistogram
    counts, total, total_sum, low, high = {}, 0, 0.0, None, None
    for value in values:
        if value != value:
            continue
        value = min(max(float(value), 0.0), h.MAX_TRACKABLE)
        if value < h.MIN_TRACKABLE:
            idx = h.ZERO_BUCKET
        elif value >= h.MAX_TRACKABLE:
            idx = h._MAX_INDEX
        else:
            idx = math.floor(math.log(value) / h._LOG_GROWTH)
            idx = min(max(idx, h._MIN_INDEX), h._MAX_INDEX)
        counts[idx] = counts.get(idx, 0) + 1
        total += 1
        total_sum += value
        if low is None or value < low:
            low = value
        if high is None or value > high:
            high = value
    return counts, total, total_sum, low, high


def _assert_matches_reference(values):
    hist = _fill(values)
    counts, total, total_sum, low, high = _reference_fill(values)
    assert hist.counts == counts
    assert hist.total == total
    # repr tells -0.0 from 0.0 and None from a number.
    assert repr(hist._sum) == repr(total_sum)
    assert repr(hist._min) == repr(low)
    assert repr(hist._max) == repr(high)


_MIN, _MAX = LogHistogram.MIN_TRACKABLE, LogHistogram.MAX_TRACKABLE
_INF, _NAN = float("inf"), float("nan")
#: The values whose clamps and buckets are edge cases.
_EDGE_VALUES = [
    _NAN, -_INF, -1.0, -1e-300, -0.0, 0.0, 5e-324, 1e-10,
    math.nextafter(_MIN, 0.0), _MIN, math.nextafter(_MIN, _INF),
    1.0, math.nextafter(_MAX, 0.0), _MAX, math.nextafter(_MAX, _INF),
    1e300, _INF,
]


class TestObserveMatchesReference:
    @given(st.lists(st.one_of(
        st.floats(),  # NaN, infinities, negatives, subnormals
        st.floats(min_value=_MIN, max_value=_MAX),
        st.sampled_from(_EDGE_VALUES),
        st.integers(-10**18, 10**18),
    ), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_same_buckets_and_summary_as_reference(self, values):
        _assert_matches_reference(values)

    def test_edge_values_one_at_a_time(self):
        for value in _EDGE_VALUES:
            _assert_matches_reference([value])
        _assert_matches_reference(_EDGE_VALUES)

    def test_every_bucket_edge(self):
        """Both sides of every bucket's lower edge land where the
        reference puts them."""
        values = []
        for idx in range(LogHistogram._MIN_INDEX, LogHistogram._MAX_INDEX + 1):
            edge = LogHistogram.GROWTH ** idx
            below = math.nextafter(edge, 0.0)
            values += [math.nextafter(below, 0.0), below, edge,
                       math.nextafter(edge, _INF)]
        _assert_matches_reference(values)


class TestPercentileAccuracy:
    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e12,
                           allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=200),
        st.sampled_from([0.25, 0.5, 0.9, 0.99, 0.999, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_five_percent_of_sorted_reference(self, values, q):
        """The headline guarantee: any quantile is within ~5% relative
        error of the exact sorted-list answer (4% buckets give <= half
        a bucket of error, plus the min/max clamp only tightens)."""
        hist = _fill(values)
        reference = _reference_percentile(values, q)
        got = hist.percentile(q)
        assert got == pytest.approx(reference, rel=0.05)

    def test_p100_is_exact_max(self):
        values = [3.0, 17.5, 9_999.25]
        hist = _fill(values)
        assert hist.percentile(1.0) == 9_999.25

    def test_distinguishes_close_tail_values(self):
        # 60 vs 90 land in different 4% buckets: the quantized-integer
        # histogram this replaces reported both at the same edge.
        hist = _fill([60.0] * 99 + [90.0])
        assert hist.percentile(0.5) < 70.0
        assert hist.percentile(1.0) == 90.0


class TestMerge:
    def test_merge_equals_pooled_observation(self):
        a_values = [1.5, 80.0, 3_000.0]
        b_values = [0.2, 80.0, 9.9]
        merged = _fill(a_values)
        merged.merge(_fill(b_values))
        pooled = _fill(a_values + b_values)
        assert merged.counts == pooled.counts
        assert merged.total == pooled.total
        assert merged.min == pooled.min
        assert merged.max == pooled.max
        for q in (0.1, 0.5, 0.9, 1.0):
            assert merged.percentile(q) == pooled.percentile(q)

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e9,
                              allow_nan=False), max_size=50),
           st.lists(st.floats(min_value=1e-3, max_value=1e9,
                              allow_nan=False), max_size=50),
           st.lists(st.floats(min_value=1e-3, max_value=1e9,
                              allow_nan=False), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_merge_is_associative(self, xs, ys, zs):
        left = _fill(xs)
        ab = _fill(ys)
        left.merge(ab)  # does not consume the arguments' data below
        left_c = _fill(zs)
        left.merge(left_c)

        right_bc = _fill(ys)
        right_bc.merge(_fill(zs))
        right = _fill(xs)
        right.merge(right_bc)

        assert left.counts == right.counts
        assert left.total == right.total
        assert left._sum == pytest.approx(right._sum)
        assert left.min == right.min and left.max == right.max

    def test_registry_merge_folds_log_histograms(self):
        parent, child = MetricsRegistry(), MetricsRegistry()
        parent.log_histogram("latency_us").observe(7.0)
        child.log_histogram("latency_us").observe(42.0)
        child.log_histogram("depth").observe(3)
        parent.merge(child)
        assert isinstance(parent.histograms["latency_us"], LogHistogram)
        assert parent.log_histogram("latency_us").total == 2
        assert parent.log_histogram("latency_us").max == 42.0
        assert parent.log_histogram("depth").total == 1
