"""No-adversary outputs are bit-identical with the scenario layer present.

The scenario layer (``repro.traffic.scenarios``, the guard, the
per-class flow-cache attribution) is strictly additive: when no
scenario is requested, every pre-existing output — generator traces,
figure/table data, soak results, committed BENCH records — must be
byte-for-byte what it was before this layer existed.  These tests pin
that by (a) interleaving scenario builds with the legacy paths and
asserting the legacy outputs don't move, and (b) validating the
committed BENCH records still parse with their expected schema.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.harness.soak import CHAOS_SOAK, SERVE_SOAK, run_soak
from repro.npsim.flowcache import FlowCache, simulate_hit_rate
from repro.traffic import build_scenario, matched_trace, uniform_trace

REPO = Path(__file__).resolve().parents[2]


def _digest(trace) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(trace.field_arrays()).tobytes()).hexdigest()


class TestGeneratorsUnperturbed:
    def test_legacy_traces_identical_around_scenario_builds(
            self, small_fw_ruleset):
        """Building scenarios must not disturb any other generator's
        stream (no hidden global RNG, no shared state)."""
        before_m = _digest(matched_trace(small_fw_ruleset, 300, seed=42))
        before_u = _digest(uniform_trace(300, seed=42))
        build_scenario("syn-flood", small_fw_ruleset, 200, seed=1)
        build_scenario("cache-bust", small_fw_ruleset, 200, seed=2)
        assert _digest(matched_trace(small_fw_ruleset, 300, seed=42)) \
            == before_m
        assert _digest(uniform_trace(300, seed=42)) == before_u

    def test_flow_cache_unlabelled_behaviour_unchanged(self):
        """The klass-aware cache must behave identically when no labels
        are passed (the legacy call shape)."""
        headers = [(i % 7, i % 5, i, i, 6) for i in range(200)]
        cache = FlowCache(8)
        results = [cache.access(h) for h in headers]
        labelled = FlowCache(8)
        results_l = [labelled.access(h, klass="x") for h in headers]
        assert results == results_l
        assert (cache.hits, cache.misses) == (labelled.hits, labelled.misses)

    def test_simulate_hit_rate_stable_value(self):
        trace_headers = [(1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 2, 3, 4, 5)]
        from repro.traffic import Trace

        assert simulate_hit_rate(Trace.from_headers(trace_headers), 4) \
            == pytest.approx(1 / 3)


class TestSoaksUnperturbed:
    def test_serve_soak_identical_around_scenario_run(self, tmp_path):
        """plain -> scenario -> plain: the two plain runs must match
        bit-for-bit, proving scenario=None is the untouched code path."""
        spec = replace(SERVE_SOAK, out_dir=str(tmp_path))
        first = run_soak(spec, quick=True)
        run_soak(spec, quick=True, scenario="mixed")
        third = run_soak(spec, quick=True)
        assert first.data["metrics"] == third.data["metrics"]
        assert first.data["extra"] == third.data["extra"]
        assert "scenario" not in first.data["extra"]

    def test_chaos_soak_plain_has_no_scenario_keys(self):
        result = run_soak(CHAOS_SOAK, quick=True)
        assert "scenario" not in result.data["extra"]
        assert "guard" not in result.data["extra"]


class TestCommittedBenchRecords:
    """The committed no-adversary BENCH records remain valid artifacts."""

    EXPECTED = ("serve_soak", "chaos_soak", "update_storm")

    @pytest.mark.parametrize("name", EXPECTED)
    def test_record_present_and_schema_v2(self, name):
        path = REPO / f"BENCH_{name}.json"
        record = json.loads(path.read_text())
        assert record["schema_version"] == 2
        assert record["metrics"], f"{name} record has empty metrics"
        for value in record["metrics"].values():
            assert isinstance(value, (int, float))
