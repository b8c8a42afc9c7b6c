"""The perf-report experiment: artifacts, attribution, reproducibility."""

import json
from dataclasses import replace

import pytest

from repro.harness.soak import PERF_REPORT, run_soak


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf_report")
    return out, run_soak(replace(PERF_REPORT, out_dir=str(out)), quick=True)


class TestQuickRun:
    def test_stage_attribution_covers_the_run(self, quick_result):
        _, result = quick_result
        extra = result.data["extra"]
        assert extra["stage_coverage"] == pytest.approx(1.0, abs=0.01)
        stages = extra["stage_breakdown"]
        # The serve pipeline's stages all show up, with call counts.
        for stage in ("idle", "admission", "classify", "audit"):
            assert stage in stages, stage
        assert stages["admission"]["calls"] == extra["packets_offered"]

    def test_latency_histograms_separate_tail_from_body(self, quick_result):
        _, result = quick_result
        extra = result.data["extra"]
        # Request-level latency includes retries/backoff, so its extreme
        # tail must sit above the per-attempt p99 — the quantized
        # integer histogram collapsed these to one bucket edge.
        assert extra["request_latency_us_max"] > extra["latency_us_p99"]
        assert extra["latency_us_p50"] <= extra["latency_us_p99"]

    def test_artifacts_written_and_well_formed(self, quick_result):
        out, result = quick_result
        json_path = out / "perf_report_FW01.json"
        prom_path = out / "perf_report_FW01.prom"
        assert str(json_path) in result.data["artifacts"]
        payload = json.loads(json_path.read_text())
        assert payload["stage_attribution"]["coverage"] == \
            pytest.approx(1.0, abs=0.01)
        assert payload["histograms"]["request_latency_us"]["kind"] == "log"
        assert payload["slo"]["timeseries"], "per-window timeseries missing"
        prom = prom_path.read_text()
        assert "repro_serve_latency_us_bucket" in prom
        assert "repro_driver_request_latency_us_count" in prom

    def test_artifacts_bit_reproducible(self, quick_result, tmp_path):
        out, _ = quick_result
        run_soak(replace(PERF_REPORT, out_dir=str(tmp_path)), quick=True)
        for name in ("perf_report_FW01.json", "perf_report_FW01.prom"):
            assert (tmp_path / name).read_bytes() == \
                (out / name).read_bytes(), name

    def test_slo_report_in_result(self, quick_result):
        _, result = quick_result
        extra = result.data["extra"]
        assert extra["slo_total"] == 4
        assert extra["slo_compliant"] == extra["slo_total"]
        assert extra["slo_windows"] > 0

