"""The serve-soak experiment: invariants of the quick run, and the
artifacts it exports (attribution, histograms, SLO report)."""

import json
from dataclasses import replace

import pytest

from repro.harness.cli import main
from repro.harness.soak import SERVE_SOAK, run_soak


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One quick run, artifacts in a tmp directory: ``(out, result)``."""
    out = tmp_path_factory.mktemp("serve_soak")
    return out, run_soak(replace(SERVE_SOAK, out_dir=str(out)), quick=True)


@pytest.fixture(scope="module")
def quick_result(quick_run):
    return quick_run[1]


@pytest.fixture(scope="module")
def second_run(tmp_path_factory):
    """An independent repeat of :func:`quick_run`."""
    out = tmp_path_factory.mktemp("serve_soak_again")
    return out, run_soak(replace(SERVE_SOAK, out_dir=str(out)), quick=True)


class TestQuickRun:
    def test_outcomes_account_for_every_packet(self, quick_result):
        data = quick_result.data
        outcomes = data["outcomes"]
        assert sum(outcomes.values()) == data["extra"]["packets_offered"]
        assert outcomes["served"] == data["extra"]["served"]

    def test_acceptance_invariants(self, quick_result):
        extra = quick_result.data["extra"]
        # Burst traffic must overrun admission, the fault plan must trip
        # a breaker, and nothing served may ever be wrong.
        assert extra["shed"] > 0
        assert extra["breaker_opens"] > 0
        assert extra["oracle_divergences"] == 0
        assert extra["oracle_checks"] == extra["served"]

    def test_faults_exercised(self, quick_result):
        extra = quick_result.data["extra"]
        assert extra["transient_failures"] > 0  # channel outage hit
        assert extra["failovers"] > 0           # standby actually served
        assert extra["deadline_exceeded"] > 0   # spike pushed past budget

    def test_latency_within_deadline(self, quick_result):
        extra = quick_result.data["extra"]
        deadline_us = SERVE_SOAK.policy.default_deadline_s * 1e6
        assert 0 < extra["latency_us_p50"] <= deadline_us
        assert extra["latency_us_p50"] <= extra["latency_us_p99"] <= deadline_us

    def test_drained_cleanly(self, quick_result):
        assert quick_result.data["extra"]["drained"] is True

    def test_deterministic(self, quick_result, second_run):
        _, again = second_run
        assert again.data["metrics"] == quick_result.data["metrics"]
        assert again.data["extra"] == quick_result.data["extra"]


class TestExport:
    def test_stage_attribution_covers_the_run(self, quick_result):
        extra = quick_result.data["extra"]
        assert extra["stage_coverage"] == pytest.approx(1.0, abs=0.01)
        stages = extra["stage_breakdown"]
        # The serve pipeline's stages all show up, with call counts.
        for stage in ("idle", "admission", "classify", "audit"):
            assert stage in stages, stage
        assert stages["admission"]["calls"] == extra["packets_offered"]

    def test_latency_histograms_separate_tail_from_body(self, quick_result):
        extra = quick_result.data["extra"]
        # Request-level latency includes retries/backoff, so its extreme
        # tail must sit above the per-attempt p99 — the quantized
        # integer histogram collapsed these to one bucket edge.
        assert extra["request_latency_us_max"] > extra["latency_us_p99"]
        assert extra["latency_us_p50"] <= extra["latency_us_p99"]

    def test_artifacts_written_and_well_formed(self, quick_run):
        out, result = quick_run
        json_path = out / "perf_report_FW01.json"
        prom_path = out / "perf_report_FW01.prom"
        # The report names both artifacts; the result data does not, so
        # it stays independent of the output directory.
        assert str(json_path) in result.text
        assert str(prom_path) in result.text
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "serve-soak"
        assert payload["stage_attribution"]["coverage"] == \
            pytest.approx(1.0, abs=0.01)
        assert payload["histograms"]["request_latency_us"]["kind"] == "log"
        assert payload["slo"]["timeseries"], "per-window timeseries missing"
        prom = prom_path.read_text()
        assert "repro_serve_latency_us_bucket" in prom
        assert "repro_driver_request_latency_us_count" in prom

    def test_artifacts_bit_reproducible(self, quick_run, second_run):
        out, again = quick_run[0], second_run[0]
        for name in ("perf_report_FW01.json", "perf_report_FW01.prom"):
            assert (again / name).read_bytes() == \
                (out / name).read_bytes(), name

    def test_slo_report_in_result(self, quick_result):
        extra = quick_result.data["extra"]
        slos = extra["slo"]
        assert len(slos) == 4
        assert all(s["compliant"] for s in slos.values())
        assert extra["slo_windows"] > 0

    def test_cli_out_writes_artifacts(self, tmp_path, capsys):
        assert main(["serve-soak", "--quick", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "perf_report_FW01.json", "perf_report_FW01.prom"]

    def test_cli_scenario_run_honours_out_and_writes_nothing(self, tmp_path,
                                                              capsys):
        """A ``--scenario`` run must not overwrite the plain run's files."""
        out, data = tmp_path / "out", tmp_path / "json"
        assert main(["serve-soak", "--quick", "--out", str(out),
                     "--scenario", "syn-flood", "--json", str(data)]) == 0
        payload = json.loads((data / "serve-soak.json").read_text())
        assert payload["data"]["extra"]["scenario"] == "syn-flood"
        assert not out.exists()
