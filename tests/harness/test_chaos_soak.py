"""Chaos-soak experiment: bit-reproducibility and acceptance shape.

The full acceptance criteria (kills survived, zero divergences, bounded
goodput loss) are asserted *inside* run_soak — a quick run that
returns at all has already passed them.  Here we pin determinism: two
runs of the same seeded soak must produce byte-identical results.
"""

import json

from repro.harness.soak import CHAOS_SOAK, run_soak


class TestChaosSoakQuick:
    def test_two_runs_bit_identical(self):
        first = run_soak(CHAOS_SOAK, quick=True)
        second = run_soak(CHAOS_SOAK, quick=True)
        assert json.dumps(first.data, sort_keys=True) == \
            json.dumps(second.data, sort_keys=True)

    def test_result_shape_and_acceptance_evidence(self):
        result = run_soak(CHAOS_SOAK, quick=True)
        assert result.experiment == "chaos-soak"
        data = result.data
        extra = data["extra"]
        # Every injected death is visible in the fabric's own metrics.
        assert extra["worker_deaths"] >= 3
        assert extra["restarts"] >= 3
        assert extra["corrupt_snapshot_restarts"] >= 1
        assert extra["oracle_divergences"] == 0
        assert extra["oracle_checks"] > 0
        assert data["metrics"]["recovery_goodput_ratio"] >= 0.5
        assert data["fault_plan"]["worker_faults"]
        # The rendered table mentions the soak's headline numbers.
        assert "goodput" in result.text
