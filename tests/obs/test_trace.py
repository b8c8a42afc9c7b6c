"""Decision tracing: traced lookups equal untraced lookups equal the
linear oracle, and ExpCuts' traced depth honours the paper's bound."""

import pytest
from hypothesis import given, settings

from repro.classifiers import (
    ALGORITHMS,
    ExpCutsClassifier,
    HiCutsClassifier,
    HyperCutsClassifier,
    LinearSearchClassifier,
)
from repro.classifiers.updates import UpdatableClassifier
from repro.obs import DecisionTrace, disable_metrics, enable_metrics
from repro.rulesets import churn_sequence, generate
from repro.rulesets.profiles import PROFILES
from repro.traffic import corner_case_trace, matched_trace

from ..conftest import header_strategy, ruleset_strategy


@pytest.mark.parametrize("algo", sorted(ALGORITHMS), ids=str)
class TestTracedEqualsUntraced:
    """The central telemetry property, per registered algorithm."""

    def test_matched_traffic(self, algo, small_fw_ruleset):
        clf = ALGORITHMS[algo].build(small_fw_ruleset)
        oracle = LinearSearchClassifier.build(small_fw_ruleset)
        traffic = matched_trace(small_fw_ruleset, 120, seed=33)
        for idx in range(len(traffic)):
            header = traffic.header(idx)
            dtrace = DecisionTrace()
            traced = clf.classify(header, trace=dtrace)
            assert traced == clf.classify(header)
            assert traced == oracle.classify(header)
            assert dtrace.result == traced
            assert dtrace.algorithm == clf.name
            assert dtrace.steps, "a traced lookup must record its path"

    def test_corner_cases(self, algo, small_cr_ruleset):
        clf = ALGORITHMS[algo].build(small_cr_ruleset)
        traffic = corner_case_trace(small_cr_ruleset)
        for idx in range(min(len(traffic), 150)):
            header = traffic.header(idx)
            dtrace = DecisionTrace()
            assert clf.classify(header, trace=dtrace) == clf.classify(header)

    def test_aggregates_are_consistent(self, algo, small_fw_ruleset):
        clf = ALGORITHMS[algo].build(small_fw_ruleset)
        traffic = matched_trace(small_fw_ruleset, 20, seed=5)
        for idx in range(len(traffic)):
            dtrace = DecisionTrace()
            clf.classify(traffic.header(idx), trace=dtrace)
            assert dtrace.total_words >= dtrace.total_accesses >= 1
            assert dtrace.depth + dtrace.linear_search_length <= len(dtrace.steps)


@pytest.mark.parametrize(
    "algo", [ExpCutsClassifier, HiCutsClassifier, HyperCutsClassifier],
    ids=lambda algo: algo.name)
def test_traced_under_churn(algo):
    """Traced == untraced == ``first_match`` after every op of a churn
    stream absorbed by in-place edits, tombstones and compactions."""
    ruleset = generate(PROFILES["FW01"], size=40, seed=51).with_default()
    traffic = matched_trace(ruleset, 40, seed=52)
    headers = [traffic.header(idx) for idx in range(len(traffic))]
    clf = UpdatableClassifier(ruleset, algo, incremental=True)
    for op in churn_sequence(ruleset, 60, seed=53):
        if op[0] == "insert":
            clf.insert(op[2], op[1])
        else:
            clf.remove(op[1])
        probes = headers + [tuple(iv.lo for iv in rule.intervals)
                            for rule in clf.rules[:40]]
        oracle = clf.current_ruleset()
        # Every untraced answer first: a traced ExpCuts lookup repacks an
        # edited tree, which would move the rest off the edited walk.
        untraced = [clf.classify(header) for header in probes]
        for header, want in zip(probes, untraced):
            dtrace = DecisionTrace()
            assert clf.classify(header, trace=dtrace) == want
            assert dtrace.result == want == oracle.first_match(header)
    assert clf.stats.incremental_inserts and clf.stats.slow_path_lookups


class TestExpCutsDepthBound:
    def test_depth_never_exceeds_bound(self, small_fw_ruleset):
        clf = ExpCutsClassifier.build(small_fw_ruleset)
        bound = clf.tree.depth_bound
        assert bound <= 13, "5-tuple W/w bound from the paper"
        traffic = matched_trace(small_fw_ruleset, 300, seed=7)
        for idx in range(len(traffic)):
            dtrace = DecisionTrace()
            clf.classify(traffic.header(idx), trace=dtrace)
            assert dtrace.depth <= bound
            assert dtrace.linear_search_length == 0, \
                "ExpCuts has no leaf linear search"

    @given(ruleset_strategy(max_rules=8), header_strategy())
    @settings(max_examples=25, deadline=None)
    def test_depth_bound_hypothesis(self, ruleset, header):
        clf = ExpCutsClassifier.build(ruleset)
        dtrace = DecisionTrace()
        assert clf.classify(header, trace=dtrace) == ruleset.first_match(header)
        assert dtrace.depth <= clf.tree.depth_bound <= 13

    def test_popcounts_recorded(self, small_fw_ruleset):
        clf = ExpCutsClassifier.build(small_fw_ruleset)
        traffic = matched_trace(small_fw_ruleset, 10, seed=9)
        dtrace = DecisionTrace()
        clf.classify(traffic.header(0), trace=dtrace)
        pops = dtrace.popcounts
        assert pops and all(p >= 0 for p in pops)


class TestHiCutsTrace:
    def test_linear_search_recorded(self, small_fw_ruleset):
        clf = HiCutsClassifier.build(small_fw_ruleset, binth=4)
        traffic = matched_trace(small_fw_ruleset, 200, seed=13)
        lengths = []
        for idx in range(len(traffic)):
            dtrace = DecisionTrace()
            clf.classify(traffic.header(idx), trace=dtrace)
            lengths.append(dtrace.linear_search_length)
        # binth=4 leaves: some lookup somewhere must scan more than one rule.
        assert max(lengths) >= 1

    @given(ruleset_strategy(max_rules=8), header_strategy())
    @settings(max_examples=25, deadline=None)
    def test_traced_equals_oracle_hypothesis(self, ruleset, header):
        clf = HiCutsClassifier.build(ruleset, binth=2)
        dtrace = DecisionTrace()
        assert clf.classify(header, trace=dtrace) == ruleset.first_match(header)


class TestRendering:
    def test_pretty_and_to_dict(self, tiny_ruleset):
        clf = ExpCutsClassifier.build(tiny_ruleset)
        dtrace = DecisionTrace()
        header = (0x0A000001, 0xC0A80105, 12345, 80, 6)
        result = clf.classify(header, trace=dtrace)
        text = dtrace.pretty()
        assert "expcuts" in text and f"rule {result}" in text
        dump = dtrace.to_dict()
        assert dump["result"] == result
        assert dump["depth"] == dtrace.depth
        assert len(dump["steps"]) == len(dtrace.steps)


def test_traced_lookup_emits_metrics(small_fw_ruleset):
    clf = ExpCutsClassifier.build(small_fw_ruleset)
    traffic = matched_trace(small_fw_ruleset, 5, seed=1)
    reg = enable_metrics()
    try:
        for idx in range(len(traffic)):
            clf.classify(traffic.header(idx), trace=DecisionTrace())
        assert reg.counters["classify.expcuts.lookups"].value == len(traffic)
        assert reg.histograms["classify.expcuts.depth"].total == len(traffic)
    finally:
        disable_metrics()
