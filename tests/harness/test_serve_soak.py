"""The serve-soak experiment: invariants of the quick run."""

import pytest

from repro.harness.soak import SERVE_SOAK, run_soak


@pytest.fixture(scope="module")
def quick_result():
    return run_soak(SERVE_SOAK, quick=True)


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

    def test_deterministic(self, quick_result):
        again = run_soak(SERVE_SOAK, quick=True)
        assert again.data["metrics"] == quick_result.data["metrics"]
        assert again.data["extra"] == quick_result.data["extra"]

