"""Incremental structure edits vs the linear oracle.

``UpdatableClassifier(incremental=True)`` absorbs inserts by node-local
re-cuts of the cutting trees instead of the overlay, tombstones removes,
and compacts (full rebuild) once garbage crosses the watermark.  Exact
first-match semantics must survive *any* interleaving of insert, remove
and forced compaction, on every tree algorithm — a hypothesis property
drives random sequences against the linear oracle, and deterministic
churn replays check each algorithm end to end.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import (
    ExpCutsClassifier,
    HiCutsClassifier,
    HyperCutsClassifier,
)
from repro.classifiers.updates import UpdatableClassifier
from repro.core.rule import RuleSet
from repro.rulesets import churn_sequence, generate
from repro.rulesets.profiles import PROFILES

ALGOS = [ExpCutsClassifier, HiCutsClassifier, HyperCutsClassifier]


def probe_headers(rules):
    """Low corners of every rule's box, plus fixed extremes — the same
    spot-check family the validate-then-swap rebuild uses."""
    headers = [tuple(iv.lo for iv in rule.intervals) for rule in rules[:48]]
    headers.append((0, 0, 0, 0, 0))
    headers.append((0xFFFFFFFF, 0xFFFFFFFF, 65535, 65535, 255))
    return headers


def assert_oracle_equivalent(clf):
    oracle = clf.current_ruleset()
    for header in probe_headers(clf.rules):
        assert clf.classify(header) == oracle.first_match(header), header


@pytest.fixture(scope="module")
def churn_pool():
    ruleset = generate(PROFILES["FW01"], size=30, seed=21).with_default()
    return ruleset, churn_sequence(ruleset, 120, seed=21, flap_rate=0.35,
                                   locality=0.5)


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.name)
def test_churn_replay_oracle_equivalence(algo, churn_pool):
    """A deterministic 120-op churn stream, checked every 10 ops."""
    ruleset, ops = churn_pool
    clf = UpdatableClassifier(ruleset, algo, rebuild_threshold=16,
                              incremental=True, edit_budget=256,
                              compaction_watermark=0.3)
    for i, op in enumerate(ops):
        if op[0] == "insert":
            clf.insert(op[2], op[1])
        else:
            clf.remove(op[1])
        if i % 10 == 9:
            assert_oracle_equivalent(clf)
    assert_oracle_equivalent(clf)
    # The stream actually exercised the incremental machinery.
    assert clf.stats.incremental_inserts > 0


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.name)
def test_tiny_edit_budget_falls_back_to_overlay(algo, churn_pool):
    """Every in-place edit rejected (budget 1) -> overlay path, still
    exact."""
    ruleset, ops = churn_pool
    clf = UpdatableClassifier(ruleset, algo, rebuild_threshold=8,
                              incremental=True, edit_budget=1)
    for op in ops[:40]:
        if op[0] == "insert":
            clf.insert(op[2], op[1])
        else:
            clf.remove(op[1])
    assert_oracle_equivalent(clf)


@pytest.mark.parametrize("edit_budget", [256, 8])
def test_expcuts_garbage_fraction_equals_full_walk(churn_pool, edit_budget):
    """The running layout-word total behind ``garbage_fraction()`` equals
    the full node walk after every op: swapped-in edits advance it,
    rejected (rolled-back) edits leave it alone, and a tree unpickled
    without the total recomputes it once."""
    ruleset, ops = churn_pool
    clf = UpdatableClassifier(ruleset, ExpCutsClassifier,
                              rebuild_threshold=16, incremental=True,
                              edit_budget=edit_budget,
                              compaction_watermark=0.3)

    def full_walk_fraction():
        tree = clf.base.tree
        live = sum(1 + n.children.compressed_slots for n in tree.nodes)
        return tree.build_stats.get("garbage_words", 0) / max(live, 1)

    for op in ops:
        if op[0] == "insert":
            clf.insert(op[2], op[1])
        else:
            clf.remove(op[1])
        assert clf.base.garbage_fraction() == full_walk_fraction()
    assert clf.stats.incremental_inserts > 0
    del clf.base.tree.build_stats["layout_words"]
    assert clf.base.garbage_fraction() == full_walk_fraction()


#: SHA-256 of the per-op ``(len(tree.nodes), garbage_words,
#: layout_words)`` of an ExpCuts tree under a seeded CR01 churn replay,
#: pinned before the builder interned its memo keys: copy-on-write
#: inserts rebuild subtrees through the same builder as a full build.
EXPCUTS_CHURN_DIGEST = (
    "3026e02184a85769f51242b21060e133918694bd2b68c47c6f6243937b4f1513")


def test_expcuts_churn_structure_pinned():
    ruleset = generate(PROFILES["CR01"], size=48, seed=17).with_default()
    clf = UpdatableClassifier(ruleset, ExpCutsClassifier,
                              rebuild_threshold=16, incremental=True,
                              edit_budget=256, compaction_watermark=0.3)
    h = hashlib.sha256()
    for op in churn_sequence(ruleset, 80, seed=17, flap_rate=0.3):
        if op[0] == "insert":
            clf.insert(op[2], op[1])
        else:
            clf.remove(op[1])
        tree = clf.base.tree
        h.update(repr((len(tree.nodes),
                       tree.build_stats.get("garbage_words", 0),
                       tree.layout_words())).encode())
    assert clf.stats.incremental_inserts > 0
    assert h.hexdigest() == EXPCUTS_CHURN_DIGEST


def test_compaction_reclaims_tombstones():
    ruleset = generate(PROFILES["FW01"], size=24, seed=5).with_default()
    clf = UpdatableClassifier(ruleset, ExpCutsClassifier,
                              rebuild_threshold=1000, incremental=True,
                              compaction_watermark=0.25)
    for _ in range(10):  # > 25% of the snapshot: watermark must trip
        clf.remove(0)
    assert clf.stats.compactions >= 1
    # The compaction reclaimed every tombstone it saw; only removes
    # landed after it may still be pending (below the watermark).
    assert clf.pending_updates < 10 * (1 - 0.25)
    assert_oracle_equivalent(clf)


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.name)
def test_insert_after_tombstoned_winner_keeps_slow_path(algo):
    """Regression: a leaf whose winner was tombstoned routes lookups to
    the exact slow path.  A later lower-priority insert covering the
    same region must NOT replace that leaf — doing so masked live rules
    the leaf no longer referenced (the tombstone was the only thing
    keeping the slow path engaged)."""
    from repro.core.rule import Rule

    rules = RuleSet([
        Rule.any(),                              # 0: leaf winner
        Rule.from_prefixes(sip="10.0.0.0/8"),    # 1: the masked rule
        Rule.any(),                              # 2: default
    ])
    clf = UpdatableClassifier(rules, algo, rebuild_threshold=1000,
                              incremental=True, compaction_watermark=0.99)
    header = (10 << 24, 0, 0, 0, 0)
    clf.remove(0)  # tombstone the winner: lookups now slow-path to 0
    assert clf.classify(header) == 0
    clf.insert(Rule.from_prefixes(sip="10.0.0.0/16"), 1)
    # First match is still the /8 at position 0, not the new /16.
    assert clf.classify(header) == 0
    assert_oracle_equivalent(clf)


def test_backlog_settles_to_zero():
    ruleset = generate(PROFILES["FW01"], size=24, seed=6).with_default()
    clf = UpdatableClassifier(ruleset, HiCutsClassifier,
                              rebuild_threshold=64, incremental=True)
    ops = churn_sequence(ruleset, 30, seed=6)
    for op in ops:
        if op[0] == "insert":
            clf.insert(op[2], op[1])
        else:
            clf.remove(op[1])

    def settled():
        # Nothing left for a rebuild or a compaction to absorb.
        return (clf.pending_updates == 0
                and clf._garbage_fraction() < clf.compaction_watermark)

    if not settled():
        assert clf.rebuild()
    assert settled()
    assert_oracle_equivalent(clf)


# -- hypothesis property: random op sequences -------------------------------

_BASE_RULES = generate(PROFILES["FW01"], size=16, seed=33).with_default()
_FRESH = generate(PROFILES["FW01"], size=64, seed=34).rules

op_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "remove", "compact"]),
              st.integers(0, 63), st.floats(0, 0.999)),
    min_size=1, max_size=25,
)


@settings(max_examples=25, deadline=None)
@given(ops=op_strategy, algo_index=st.integers(0, len(ALGOS) - 1))
def test_random_sequences_oracle_equivalent(ops, algo_index):
    """Any insert/remove/compact interleaving preserves exact
    first-match, including tiny edit budgets that force rejects."""
    clf = UpdatableClassifier(_BASE_RULES, ALGOS[algo_index],
                              rebuild_threshold=6, incremental=True,
                              edit_budget=64, compaction_watermark=0.3)
    for kind, pick, frac in ops:
        if kind == "insert":
            clf.insert(_FRESH[pick], int(frac * (len(clf.rules) + 1)))
        elif kind == "remove" and len(clf.rules) > 1:
            clf.remove(int(frac * len(clf.rules)))
        elif kind == "compact":
            clf.rebuild()
    assert_oracle_equivalent(clf)
