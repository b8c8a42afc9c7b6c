"""The adversarial-soak experiment: quick-run invariants, and the
scenario threading through the serve/chaos soaks."""

from dataclasses import replace

import pytest

from repro.harness import soak
from repro.harness.cli import main
from repro.harness.soak import ADVERSARIAL_SOAK, SERVE_SOAK, run_soak
from repro.traffic.scenarios import SCENARIOS


@pytest.fixture(scope="module")
def quick_result():
    return run_soak(ADVERSARIAL_SOAK, quick=True)


class TestQuickRun:
    def test_all_phases_ran(self, quick_result):
        phases = quick_result.data["extra"]["phases"]
        assert set(phases) == set(soak.PHASES)
        assert set(soak.PHASES) <= set(SCENARIOS)

    def test_zero_divergences_everywhere(self, quick_result):
        for name, phase in quick_result.data["extra"]["phases"].items():
            assert phase["divergences"] == 0, name
            assert phase["oracle_checks"] > 0, name

    def test_flood_shed_floor(self, quick_result):
        metrics = quick_result.data["metrics"]
        assert metrics["attack_shed_fraction"] >= \
            soak.MIN_ATTACK_SHED

    def test_legit_goodput_floor(self, quick_result):
        metrics = quick_result.data["metrics"]
        assert metrics["legit_goodput_ratio"] >= \
            soak.MIN_LEGIT_GOODPUT_RATIO
        assert metrics["legit_goodput_kpps"] > 0

    def test_cache_collapse_attributed(self, quick_result):
        """The scan's own hit rate pins near zero while legit classes
        keep their locality — visible only via per-class metrics."""
        extra = quick_result.data["extra"]
        assert extra["scan_hit_rate"] < 0.05
        assert extra["best_legit_hit_rate"] > \
            extra["scan_hit_rate"] + soak.MIN_CLASS_HIT_GAP
        cache = extra["phases"]["cache-bust"]["flow_cache"]
        assert "scan" in cache and "overall" in cache

    def test_guard_engaged_under_flood(self, quick_result):
        flood = quick_result.data["extra"]["phases"]["syn-flood"]
        assert flood["guard"]["engagements"] > 0
        assert flood["guard_shed_reasons"].get("syn_unproven", 0) > 0

    def test_sides_account_for_every_packet(self, quick_result):
        extra = quick_result.data["extra"]
        for name, phase in extra["phases"].items():
            total = sum(sum(side.values())
                        for side in phase["sides"].values())
            assert total == 2 * extra["packets_per_phase"], name

    def test_baseline_has_no_attack_traffic(self, quick_result):
        baseline = quick_result.data["extra"]["phases"]["mixed"]
        assert baseline["sides"]["attack"]["offered"] == 0

    def test_worst_case_depth_reported(self, quick_result):
        depth = quick_result.data["extra"]["worst_case_depth"]
        assert depth["attack"]["max_depth"] >= depth["legit"]["mean_depth"]

    def test_deterministic(self, quick_result):
        again = run_soak(ADVERSARIAL_SOAK, quick=True)
        assert again.data["metrics"] == quick_result.data["metrics"]
        assert again.data["extra"] == quick_result.data["extra"]


class TestScenarioThreading:
    def test_serve_soak_accepts_scenario(self, tmp_path):
        spec = replace(SERVE_SOAK, out_dir=str(tmp_path))
        result = run_soak(spec, quick=True, scenario="syn-flood")
        extra = result.data["extra"]
        assert extra["scenario"] == "syn-flood"
        assert extra["guard"]["engagements"] > 0
        assert extra["oracle_divergences"] == 0
        assert sum(extra["guard_shed_reasons"].values()) > 0

    def test_serve_soak_scenario_differs_from_plain(self, tmp_path):
        spec = replace(SERVE_SOAK, out_dir=str(tmp_path))
        plain = run_soak(spec, quick=True)
        attacked = run_soak(spec, quick=True, scenario="syn-flood")
        assert "scenario" not in plain.data["extra"]
        assert plain.data["extra"]["served"] != \
            attacked.data["extra"]["served"]

    def test_cli_unknown_scenario_exits_2_with_hint(self, capsys):
        code = main(["serve-soak", "--quick", "--scenario", "syn-flod"])
        assert code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "syn-flood" in err

    def test_cli_scenario_rejected_for_other_experiments(self, capsys):
        code = main(["fig9", "--quick", "--scenario", "mixed"])
        assert code == 2
        assert "only honoured by" in capsys.readouterr().err
