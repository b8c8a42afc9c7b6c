"""HyperCuts-specific behaviour."""

import pytest

from repro.classifiers.cuts import _Internal
from repro.classifiers.hypercuts import MAX_LOG2_FANOUT, HyperCutsClassifier
from repro.classifiers.hicuts import HiCutsClassifier
from repro.core.rule import Rule, RuleSet


class TestMultiDimensionalCutting:
    def test_cuts_multiple_dims(self, small_cr_ruleset):
        clf = HyperCutsClassifier.build(small_cr_ruleset)
        assert clf.mean_dims_cut() > 1.0

    def test_not_deeper_than_hicuts_at_scale(self):
        from repro.rulesets import generate
        from repro.rulesets.profiles import PROFILES

        ruleset = generate(PROFILES["CR01"], size=300, seed=31).with_default()
        hyper = HyperCutsClassifier.build(ruleset)
        hi = HiCutsClassifier.build(ruleset)
        assert hyper.depth() <= hi.depth()

    def test_fanout_capped(self, small_cr_ruleset):
        clf = HyperCutsClassifier.build(small_cr_ruleset)
        for node in clf.nodes:
            if isinstance(node, _Internal):
                assert sum(node.lgs) <= MAX_LOG2_FANOUT

    def test_child_count_matches_lgs(self, small_fw_ruleset):
        clf = HyperCutsClassifier.build(small_fw_ruleset)
        for node in clf.nodes:
            if isinstance(node, _Internal):
                assert len(node.children) == 1 << sum(node.lgs)
                assert len(node.dims) == len(node.lgs) == len(node.shifts)


class TestBehaviour:
    def test_empty_ruleset(self):
        clf = HyperCutsClassifier.build(RuleSet([]))
        assert clf.classify((0, 0, 0, 0, 0)) is None

    def test_single_rule(self):
        clf = HyperCutsClassifier.build(
            RuleSet([Rule.from_prefixes(sip="10.0.0.0/8", dport=80)])
        )
        assert clf.classify((0x0A000001, 0, 0, 80, 0)) == 0
        assert clf.classify((0x0A000001, 0, 0, 81, 0)) is None

    def test_priority(self, tiny_ruleset):
        clf = HyperCutsClassifier.build(tiny_ruleset, binth=1)
        assert clf.classify((0x0A000001, 0xC0A80105, 12345, 80, 6)) == 0

    def test_no_explicit_bound(self, small_fw_ruleset):
        clf = HyperCutsClassifier.build(small_fw_ruleset)
        assert clf.worst_case_accesses() is None

    def test_single_region(self, tiny_ruleset):
        clf = HyperCutsClassifier.build(tiny_ruleset)
        assert [r.name for r in clf.memory_regions()] == ["tree"]

    def test_max_nodes_guard(self, small_cr_ruleset):
        with pytest.raises(MemoryError):
            HyperCutsClassifier.build(small_cr_ruleset, binth=1, max_nodes=2)

    def test_trace_result_matches(self, small_fw_ruleset):
        clf = HyperCutsClassifier.build(small_fw_ruleset)
        from repro.traffic import matched_trace

        trace = matched_trace(small_fw_ruleset, 60, seed=4)
        for idx in range(len(trace)):
            header = trace.header(idx)
            assert clf.access_trace(header).result == clf.classify(header)
