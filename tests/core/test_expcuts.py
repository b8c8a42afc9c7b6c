"""ExpCuts tree construction tests: invariants, leaves, sharing soundness."""

import hashlib

import pytest
from hypothesis import given, settings

from repro.core.budget import BuildBudget
from repro.core.errors import BuildBudgetExceeded
from repro.core.expcuts import (
    ExpCutsConfig,
    REF_NO_MATCH,
    build_expcuts,
    leaf_ref,
    ref_rule_id,
)
from repro.core.layout import pack_tree
from repro.core.rule import Rule, RuleSet
from repro.rulesets import paper_ruleset

from ..conftest import header_strategy, ruleset_strategy


class TestRefEncoding:
    def test_roundtrip(self):
        for rid in (0, 1, 7, 123456):
            assert ref_rule_id(leaf_ref(rid)) == rid

    def test_no_match(self):
        assert ref_rule_id(REF_NO_MATCH) is None

    def test_internal_refs_rejected(self):
        with pytest.raises(ValueError):
            ref_rule_id(0)


class TestTreeShape:
    def test_empty_ruleset(self):
        tree = build_expcuts(RuleSet([]))
        assert tree.root_ref == REF_NO_MATCH
        assert tree.node_count() == 0
        assert tree.classify((0, 0, 0, 0, 0)) is None

    def test_single_wildcard_rule_is_root_leaf(self):
        tree = build_expcuts(RuleSet([Rule.any()]))
        assert tree.node_count() == 0
        assert tree.classify((1, 2, 3, 4, 5)) == 0

    def test_depth_bound_is_explicit(self, tiny_ruleset):
        tree = build_expcuts(tiny_ruleset)
        assert tree.depth_bound == 13  # ceil(104 / 8)
        assert tree.max_depth() <= tree.depth_bound

    def test_stride_4_depth(self, tiny_ruleset):
        tree = build_expcuts(tiny_ruleset, ExpCutsConfig(stride=4))
        assert tree.depth_bound == 26
        assert tree.max_depth() <= 26

    def test_levels_monotone_links(self, small_fw_ruleset):
        """Every internal child reference points one level deeper."""
        tree = build_expcuts(small_fw_ruleset)
        for node in tree.nodes:
            for ref in node.children.cpa:
                if ref >= 0:
                    assert tree.nodes[ref].level == node.level + 1

    def test_shadowed_rules_never_win(self):
        rules = RuleSet([
            Rule.from_prefixes(sip="10.0.0.0/8"),
            Rule.from_prefixes(sip="10.1.0.0/16"),  # shadowed by rule 0
        ])
        tree = build_expcuts(rules)
        assert tree.classify((0x0A010001, 0, 0, 0, 0)) == 0

    def test_memo_sharing_happens(self, small_cr_ruleset):
        tree = build_expcuts(small_cr_ruleset)
        # Hash-consing must fire on realistic sets (wildcard-heavy
        # dimensions give many identical children).
        assert tree.build_stats["memo_hits"] > 0

    def test_max_nodes_guard(self, small_cr_ruleset):
        with pytest.raises(MemoryError):
            build_expcuts(small_cr_ruleset, ExpCutsConfig(max_nodes=3))


class TestSharingSoundness:
    def test_partial_range_not_shared_with_full_cover(self):
        """The counterexample to rule-id-set node sharing.

        One rule, sport in [0, 0xC800].  Sub-spaces 0x00xx and 0xC8xx of
        the top sport byte both intersect {rule 0}, but the first is fully
        covered while the second is only partly covered — a classifier
        sharing them by id-set would misclassify (0xC8FF).  Projection-
        keyed sharing must keep them distinct.
        """
        rule = Rule.from_ranges(sport=(0, 0xC800))
        tree = build_expcuts(RuleSet([rule]))
        assert tree.classify((0, 0, 0x00FF, 0, 0)) == 0
        assert tree.classify((0, 0, 0xC800, 0, 0)) == 0
        assert tree.classify((0, 0, 0xC8FF, 0, 0)) is None
        assert tree.classify((0, 0, 0xC801, 0, 0)) is None


class TestOracleEquivalence:
    @given(ruleset_strategy(max_rules=8), header_strategy())
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_scan(self, ruleset, header):
        tree = build_expcuts(ruleset)
        assert tree.classify(header) == ruleset.first_match(header)

    @given(ruleset_strategy(max_rules=6, prefix_ips=False), header_strategy())
    @settings(max_examples=40, deadline=None)
    def test_matches_linear_scan_arbitrary_ranges(self, ruleset, header):
        """IP fields as arbitrary ranges (harder than real rule sets)."""
        tree = build_expcuts(ruleset)
        assert tree.classify(header) == ruleset.first_match(header)

    @given(st_data=header_strategy())
    @settings(max_examples=30, deadline=None)
    def test_boundary_headers_small_stride(self, st_data):
        rules = RuleSet([
            Rule.from_ranges(sport=(100, 1000), proto=6),
            Rule.from_ranges(dport=(53, 53)),
            Rule.from_prefixes(sip="10.0.0.0/8", dip="10.0.0.0/8"),
        ])
        tree = build_expcuts(rules, ExpCutsConfig(stride=4))
        assert tree.classify(st_data) == rules.first_match(st_data)


@given(ruleset_strategy(max_rules=6), header_strategy())
@settings(max_examples=30, deadline=None)
def test_boundary_probe_equivalence(ruleset, header):
    """Boundary-biased headers agree with the oracle too."""
    tree = build_expcuts(ruleset)
    # Derive probes from the rules' own corners.
    for rule in list(ruleset)[:3]:
        corners = tuple(iv.lo for iv in rule.intervals)
        assert tree.classify(corners) == ruleset.first_match(corners)
        corners_hi = tuple(iv.hi for iv in rule.intervals)
        assert tree.classify(corners_hi) == ruleset.first_match(corners_hi)
    assert tree.classify(header) == ruleset.first_match(header)


def image_digest(tree, aggregated: bool) -> str:
    """SHA-256 of a packed image: per-level word counts, the root
    pointer, then every level's little-endian words."""
    image = pack_tree(tree, aggregated=aggregated)
    h = hashlib.sha256()
    h.update(repr((image.level_words(), image.root_ptr)).encode())
    for segment in image.levels:
        h.update(segment.astype("<u4").tobytes())
    return h.hexdigest()


#: Per paper rule set: the build counters, then the image digest with
#: and without aggregation.  Pinned before the builder interned its
#: memo keys: a builder change that moves a node, a count or an image
#: word must be deliberate.
PAPER_PINS = {
    "FW01": (
        {"unique_nodes": 1098, "memo_hits": 3152, "child_evaluations": 6548,
         "layout_words": 49978},
        "746ca607fa39732a44b9c07b5d0a8fd3285ccbaf6f9c84183ea029b29c1cff23",
        "ee76af7634c1d78d7bad71531fb50b16616193f6002a101cfc6c867af81cd1d5",
    ),
    "CR01": (
        {"unique_nodes": 9705, "memo_hits": 34695,
         "child_evaluations": 54986, "layout_words": 398697},
        "494695b978513e09d11a38982d1b3be4641316df4c3990d54ba5eb852259fe12",
        "0c48fc2097443a65e1e1833c772308e8a74319a59140858db8feb14dae9e3cca",
    ),
}

#: FW03's (unique_nodes, memo_hits, child_evaluations): the edge
#: service's rule set, and the build ``benchmarks/bench_core_ops.py``
#: times.
FW03_COUNTS = (20_463, 93_712, 162_250)

#: ``(max_nodes, layout words charged when the budget trips)`` on CR01:
#: the words pin the order the builder allocates (and charges) nodes in.
BUDGET_TRIPS = [(0, 0), (1, 49), (500, 20452), (5000, 208536)]


@pytest.fixture(scope="module")
def paper_trees():
    return {name: build_expcuts(paper_ruleset(name)) for name in PAPER_PINS}


class TestPaperRuleSetPins:
    @pytest.mark.parametrize("name", sorted(PAPER_PINS))
    def test_build_stats(self, paper_trees, name):
        stats, _, _ = PAPER_PINS[name]
        built = paper_trees[name].build_stats
        assert {key: built[key] for key in stats} == stats

    @pytest.mark.parametrize("aggregated", [True, False])
    @pytest.mark.parametrize("name", sorted(PAPER_PINS))
    def test_image_digest(self, paper_trees, name, aggregated):
        _, with_agg, without = PAPER_PINS[name]
        expected = with_agg if aggregated else without
        assert image_digest(paper_trees[name], aggregated) == expected

    def test_fw03_counts(self):
        stats = build_expcuts(paper_ruleset("FW03")).build_stats
        assert (stats["unique_nodes"], stats["memo_hits"],
                stats["child_evaluations"]) == FW03_COUNTS


class TestBudgetCharges:
    @pytest.mark.parametrize("max_nodes, words", BUDGET_TRIPS)
    def test_node_budget_trips_at_the_same_charge(self, max_nodes, words):
        meter = BuildBudget(max_nodes=max_nodes).meter("expcuts")
        with pytest.raises(BuildBudgetExceeded) as info:
            build_expcuts(paper_ruleset("CR01"), meter=meter)
        assert info.value.limit == "nodes"
        assert meter.nodes == max_nodes + 1
        assert meter.words == words

    @pytest.mark.parametrize("aggregated", [True, False])
    def test_pack_charges_exactly_the_image(self, paper_trees, aggregated):
        meter = BuildBudget().meter("expcuts")
        image = pack_tree(paper_trees["CR01"], aggregated=aggregated,
                          meter=meter)
        assert meter.words == image.total_words
        assert meter.nodes == 0
