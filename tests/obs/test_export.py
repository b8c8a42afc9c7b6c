"""Prometheus text exposition and JSON snapshot export."""

import json

from repro.obs import render_prometheus, write_json_snapshot, write_prometheus
from repro.obs.metrics import MetricsRegistry


def _registry():
    registry = MetricsRegistry()
    registry.counter("serve.shed.rate_limited").inc(7)
    registry.gauge("fabric.shards_available").set(3)
    for value in (60.0, 60.0, 90.0, 250.0):
        registry.log_histogram("serve.latency_us").observe(value)
    registry.log_histogram("lookup.depth").observe(4)
    registry.log_histogram("lookup.depth").observe(6)
    return registry


class TestPrometheusRender:
    def test_counters_and_gauges_with_type_headers(self):
        text = render_prometheus(_registry())
        assert "# TYPE repro_serve_shed_rate_limited counter" in text
        assert "repro_serve_shed_rate_limited 7" in text
        assert "# TYPE repro_fabric_shards_available gauge" in text
        assert "repro_fabric_shards_available 3" in text

    def test_names_are_sanitized_and_namespaced(self):
        registry = MetricsRegistry()
        registry.counter("weird-name.with:things").inc()
        text = render_prometheus(registry, namespace="app")
        assert "app_weird_name_with:things 1" in text

    def test_histogram_series_are_cumulative_and_closed(self):
        text = render_prometheus(_registry())
        lines = [line for line in text.splitlines()
                 if line.startswith("repro_serve_latency_us_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)  # cumulative, monotonic
        assert counts[-1] == 4          # +Inf bucket sees every sample
        assert 'le="+Inf"' in lines[-1]
        assert "repro_serve_latency_us_count 4" in text
        assert "repro_serve_latency_us_sum 460" in text

    def test_buckets_close_at_log_bucket_upper_edges(self):
        # 4 and 6 fall in the 1.04-growth buckets [1.04**35, 1.04**36)
        # and [1.04**45, 1.04**46).
        text = render_prometheus(_registry())
        assert 'repro_lookup_depth_bucket{le="4.10393"} 1' in text
        assert 'repro_lookup_depth_bucket{le="6.07482"} 2' in text

    def test_rendering_is_deterministic(self):
        assert render_prometheus(_registry()) == \
            render_prometheus(_registry())

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestFileExports:
    def test_write_prometheus_creates_parents(self, tmp_path):
        path = write_prometheus(_registry(), tmp_path / "deep" / "m.prom")
        assert path.read_text().endswith("\n")
        assert "repro_serve_latency_us_count 4" in path.read_text()

    def test_json_snapshot_is_sorted_stable_json(self, tmp_path):
        path = write_json_snapshot(_registry(), tmp_path / "snap.json")
        payload = json.loads(path.read_text())
        assert payload["counters"]["serve.shed.rate_limited"] == 7
        assert payload["histograms"]["serve.latency_us"]["kind"] == "log"
        again = write_json_snapshot(_registry(), tmp_path / "snap2.json")
        assert path.read_text() == again.read_text()
