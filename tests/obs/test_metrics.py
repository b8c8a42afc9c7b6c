"""The metrics registry: instruments, scoping, and the disabled state."""

import pytest

from repro.obs import (
    LogHistogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    metrics_scope,
)
from repro.obs.metrics import _NULL, _NULL_SCOPE


@pytest.fixture(autouse=True)
def metrics_disabled_after():
    """Never leak an enabled registry into other tests."""
    yield
    disable_metrics()


class TestDisabledState:
    def test_disabled_by_default(self):
        assert not metrics_enabled()
        assert get_registry() is None

    def test_null_scope_is_shared_and_inert(self):
        scope = metrics_scope("anything")
        assert scope is _NULL_SCOPE
        assert scope.scope("nested") is _NULL_SCOPE
        # All instrument types collapse to the one null instrument.
        assert scope.counter("c") is _NULL
        assert scope.gauge("g") is _NULL
        assert scope.log_histogram("h") is _NULL
        # And every operation is a no-op, not an error.
        scope.counter("c").inc()
        scope.gauge("g").set(1.0)
        scope.log_histogram("h").observe(5)


class TestEnabledRegistry:
    def test_enable_disable_roundtrip(self):
        reg = enable_metrics()
        assert metrics_enabled() and get_registry() is reg
        disable_metrics()
        assert not metrics_enabled() and get_registry() is None

    def test_scope_prefixes_names(self):
        reg = enable_metrics()
        scope = metrics_scope("npsim").scope("channel.sram0")
        scope.counter("words").inc(64)
        assert reg.counters["npsim.channel.sram0.words"].value == 64

    def test_instruments_are_memoised(self):
        reg = enable_metrics()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.log_histogram("c") is reg.log_histogram("c")

    def test_counter_and_gauge(self):
        reg = enable_metrics()
        reg.counter("n").inc()
        reg.counter("n").inc(4)
        reg.gauge("u").set(0.25)
        reg.gauge("u").set(0.75)  # last write wins
        snap = reg.snapshot()
        assert snap["counters"]["n"] == 5
        assert snap["gauges"]["u"] == 0.75

    def test_reset(self):
        reg = enable_metrics()
        reg.counter("n").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_bound_instruments_resolve_on_first_event(self):
        reg = MetricsRegistry()
        scope = reg.scope("serve")
        served = scope.bind("served")
        latency = scope.bind("latency_us", "log_histogram")
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        served.inc()
        served.inc(2)
        latency.observe(12.0)
        assert reg.counter("serve.served").value == 3
        assert reg.log_histogram("serve.latency_us").total == 1

    def test_reset_unbinds_bound_instruments(self):
        reg = MetricsRegistry()
        served = reg.scope("serve").bind("served")
        served.inc(5)
        reg.reset()
        assert reg.snapshot()["counters"] == {}
        served.inc()
        assert reg.snapshot()["counters"] == {"serve.served": 1}

    def test_null_scope_binds_the_null_instrument(self):
        assert _NULL_SCOPE.bind("x") is _NULL
        assert _NULL_SCOPE.bind("y", "log_histogram") is _NULL

    def test_render_mentions_every_instrument(self):
        reg = enable_metrics()
        reg.counter("packets").inc(7)
        reg.gauge("busy").set(0.5)
        reg.log_histogram("depth").observe(13)
        text = reg.render()
        assert "packets" in text and "busy" in text and "depth" in text


class TestHistogram:
    """The registry's one histogram kind on the small integers the
    traced-lookup histograms record (depths, access counts)."""

    def test_stats(self):
        h = LogHistogram("depth")
        for v in (13, 13, 13, 7, 5):
            h.observe(v)
        assert h.total == 5
        assert h.max == 13 and h.min == 5
        assert h.mean == pytest.approx(51 / 5)
        assert sorted(h.counts.values()) == [1, 1, 3]  # 4% buckets
        assert h.percentile(0.5) == 13  # clamped to the exact max

    def test_percentile(self):
        h = LogHistogram("x")
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(0.5) == pytest.approx(50, rel=0.02)
        assert h.percentile(0.99) == pytest.approx(99, rel=0.02)
        assert h.percentile(1.0) == 100

    def test_empty(self):
        h = LogHistogram("x")
        assert h.mean == 0.0 and h.max == 0.0 and h.percentile(0.5) == 0.0

    def test_to_dict_keys_are_strings(self):
        h = LogHistogram("x")
        h.observe(3)
        buckets = h.to_dict()["buckets"]
        assert list(buckets.values()) == [1]
        assert all(isinstance(key, str) for key in buckets)


def test_registry_isolated_per_enable():
    first = enable_metrics()
    first.counter("n").inc()
    second = enable_metrics(MetricsRegistry())
    assert get_registry() is second
    assert "n" not in second.counters
