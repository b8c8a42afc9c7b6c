"""Update-storm experiment: bit-reproducibility and acceptance shape.

The acceptance criteria proper (zero settled-epoch divergences, the
update rate floor, the epoch-lag SLO, faults survived, lag drained)
are asserted *inside* run_soak — a quick run that returns at
all has already passed them.  Here we pin determinism (two runs of the
same seeded storm must be byte-identical) and that the published
evidence actually records the storm the fault plan promised.  Both read
the shared ``quick_update_storm`` run; the determinism check compares it
with one more, independent run.
"""

import json

from repro.harness.soak import UPDATE_STORM, run_soak


class TestUpdateStormQuick:
    def test_two_runs_bit_identical(self, quick_update_storm):
        first, _ = quick_update_storm
        second = run_soak(UPDATE_STORM, quick=True)
        assert json.dumps(first.data, sort_keys=True) == \
            json.dumps(second.data, sort_keys=True)

    def test_result_shape_and_acceptance_evidence(self, quick_update_storm):
        result, _ = quick_update_storm
        assert result.experiment == "update-storm"
        data = result.data
        extra = data["extra"]
        # The storm really stormed: a live-update rate above the bar,
        # with every update-path fault kind fired at least once.
        assert data["metrics"]["updates_per_s"] >= 1000
        assert all(count >= 1 for count in extra["update_faults"].values())
        assert extra["worker_kills"] >= 1
        assert extra["worker_deaths"] >= extra["worker_kills"]
        assert extra["replayed_deltas"] >= 1
        # Consistency: audited zero divergences, clean differential
        # sweep, and the drain bar hit zero lag.
        assert extra["oracle_checks"] > 0
        assert extra["oracle_divergences"] == 0
        assert extra["sweep_answers"] > 0
        assert extra["sweep_mismatches"] == 0
        assert extra["drained_lag"] == 0
        # The headline metric trio the bench record/trend tracks.
        assert set(data["metrics"]) == {"goodput_kpps", "updates_per_s",
                                        "staleness_headroom_epochs"}
        assert data["fault_plan"]["update_faults"]
        # The rendered table carries the headline rows.
        assert "updates applied" in result.text
        assert "goodput" in result.text
