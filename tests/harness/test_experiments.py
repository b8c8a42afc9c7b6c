"""Experiment registry and quick-mode smoke tests.

Full-mode experiment *shape* assertions live in
``tests/integration/test_paper_claims.py``; here we check that every
registered experiment runs in quick mode and renders something sane.
"""

from dataclasses import replace

import pytest

from repro.harness.experiments import (
    ExperimentResult,
    REGISTRY,
    list_experiments,
    run_experiment,
)
from repro.harness.soak import SPECS


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {"table1", "table2", "table3", "table4", "table5",
                    "fig5", "fig6", "fig7", "fig8", "fig9",
                    "resilience", "profile", "serve-soak", "chaos-soak",
                    "update-storm", "adversarial-soak"}
        assert set(REGISTRY) == expected

    def test_list(self):
        listed = dict(list_experiments())
        assert "fig9" in listed

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")


# "profile" is exercised in test_profile.py against a tmp directory —
# running it here would drop artifacts into the committed results/; for
# the same reason serve-soak exports to a tmp directory here.
# update-storm reads the shared registry run from ``conftest.py``.
@pytest.mark.parametrize("name", sorted(set(REGISTRY) - {"profile"}))
def test_quick_mode_runs(name, request, monkeypatch, tmp_path):
    if name == "update-storm":
        result, _ = request.getfixturevalue("quick_update_storm")
    else:
        monkeypatch.setitem(SPECS, "serve-soak",
                            replace(SPECS["serve-soak"], out_dir=str(tmp_path)))
        result = run_experiment(name, quick=True)
    assert isinstance(result, ExperimentResult)
    assert result.experiment == name
    assert len(result.text) > 20
    assert result.data


class TestQuickModeShapes:
    def test_fig6_ratio(self):
        result = run_experiment("fig6", quick=True)
        for entry in result.data.values():
            assert entry["ratio"] < 0.5  # aggregation always compresses

    def test_fig7_monotone(self):
        result = run_experiment("fig7", quick=True)
        series = [p["mbps"] for p in result.data["series"]]
        assert series == sorted(series)

    def test_table5_monotone(self):
        result = run_experiment("table5", quick=True)
        mbps = [p["mbps"] for p in result.data["sweep"]]
        assert mbps[0] == min(mbps)

    def test_table2_multiprocessing_wins(self):
        result = run_experiment("table2", quick=True)
        tp = result.data["throughput"]
        assert tp["multiprocessing"] >= tp["context_pipelining"]
