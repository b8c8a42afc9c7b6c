"""HiCuts-specific behaviour: binth, heuristics, leaf linear search."""

import numpy as np
import pytest

from repro.classifiers.cuts import _Internal, _Leaf
from repro.classifiers.hicuts import HiCutsClassifier
from repro.classifiers.linear import RULE_WORDS
from repro.core.rule import Rule, RuleSet


class TestBinth:
    def test_leaf_sizes_respect_binth(self, small_cr_ruleset):
        for binth in (2, 4, 8):
            clf = HiCutsClassifier.build(small_cr_ruleset, binth=binth)
            # Leaves may exceed binth only when the box became a point or
            # a cover truncated the list; those are rare — the common
            # case must respect the threshold.
            sizes = clf.leaf_sizes()
            assert sizes, "tree has no leaves"
            assert sorted(sizes)[len(sizes) // 2] <= binth

    def test_smaller_binth_larger_tree(self, small_cr_ruleset):
        small = HiCutsClassifier.build(small_cr_ruleset, binth=2)
        large = HiCutsClassifier.build(small_cr_ruleset, binth=16)
        assert len(small.nodes) >= len(large.nodes)

    def test_binth_one_eliminates_most_scans(self, small_fw_ruleset):
        clf = HiCutsClassifier.build(small_fw_ruleset, binth=1)
        sizes = clf.leaf_sizes()
        assert sorted(sizes)[len(sizes) // 2] == 1


class TestStructure:
    def test_no_explicit_worst_case(self, small_fw_ruleset):
        clf = HiCutsClassifier.build(small_fw_ruleset)
        assert clf.worst_case_accesses() is None  # the paper's complaint

    def test_depth_is_positive(self, tiny_ruleset):
        clf = HiCutsClassifier.build(tiny_ruleset, binth=1)
        assert clf.depth() >= 1

    def test_single_region_memory(self, tiny_ruleset):
        clf = HiCutsClassifier.build(tiny_ruleset)
        regions = clf.memory_regions()
        assert [r.name for r in regions] == ["tree"]

    def test_node_reuse_happens(self, small_cr_ruleset):
        clf = HiCutsClassifier.build(small_cr_ruleset, binth=2)
        internal = [n for n in clf.nodes if isinstance(n, _Internal)]
        refs = [ref for n in internal for ref in n.children if ref >= 0]
        # Shared children: more references than nodes.
        assert len(refs) > len(set(refs))
        # HiCuts is the shared cuts tree with one cut dimension per node.
        assert clf.mean_dims_cut() == 1.0

    def test_max_nodes_guard(self, small_cr_ruleset):
        with pytest.raises(MemoryError):
            HiCutsClassifier.build(small_cr_ruleset, binth=1, max_nodes=2)


class TestLeafSearch:
    def test_trace_reads_six_word_entries(self, small_fw_ruleset):
        clf = HiCutsClassifier.build(small_fw_ruleset, binth=8)
        # find a header whose leaf has several rules
        trace = None
        rng = np.random.default_rng(9)
        for _ in range(200):
            header = tuple(
                int(rng.integers(0, 1 << w)) for w in (32, 32, 16, 16, 8)
            )
            trace = clf.access_trace(header)
            rule_reads = [r for r in trace.reads if r.nwords == RULE_WORDS]
            if len(rule_reads) >= 2:
                break
        assert trace is not None
        rule_reads = [r for r in trace.reads if r.nwords == RULE_WORDS]
        assert rule_reads, "no leaf scan observed"
        assert all(r.region == "tree" for r in trace.reads)

    def test_scan_stops_at_first_match(self, tiny_ruleset):
        clf = HiCutsClassifier.build(tiny_ruleset, binth=4)
        header = (0x0A000001, 0xC0A80105, 12345, 80, 6)
        trace = clf.access_trace(header)
        assert trace.result == 0


class TestEdgeCases:
    def test_empty_ruleset(self):
        clf = HiCutsClassifier.build(RuleSet([]))
        assert clf.classify((0, 0, 0, 0, 0)) is None

    def test_single_rule(self):
        clf = HiCutsClassifier.build(
            RuleSet([Rule.from_prefixes(sip="10.0.0.0/8")])
        )
        assert clf.classify((0x0A000001, 0, 0, 0, 0)) == 0
        assert clf.classify((0x0B000001, 0, 0, 0, 0)) is None

    def test_duplicate_rules_keep_priority(self):
        rule = Rule.from_prefixes(sip="10.0.0.0/8")
        clf = HiCutsClassifier.build(RuleSet([rule, rule, rule]))
        assert clf.classify((0x0A000001, 0, 0, 0, 0)) == 0

    def test_leaf_dataclass(self):
        leaf = _Leaf((1, 2, 3))
        assert leaf.rule_ids == (1, 2, 3)
