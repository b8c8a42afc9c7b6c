"""Lookup-engine tests: scalar, batch and trace paths must all agree."""

import hashlib
import pickle
import statistics
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.classifiers.expcuts import ExpCutsClassifier
from repro.core.engine import ExpCutsEngine
from repro.core.errors import DepthBoundExceededError
from repro.core.expcuts import (
    REF_NO_MATCH,
    ExpCutsConfig,
    ExpCutsTree,
    InternalNode,
    build_expcuts,
    leaf_ref,
)
from repro.core.habs import compress
from repro.core.layout import LEAF_FLAG, pack_tree
from repro.core.rule import Rule, RuleSet
from repro.rulesets import paper_ruleset
from repro.traffic import matched_trace

from ..conftest import boundary_headers, header_strategy, ruleset_strategy


def _engine(ruleset, **kwargs):
    tree = build_expcuts(ruleset, ExpCutsConfig(**{
        k: v for k, v in kwargs.items() if k in ("stride", "habs_bits_log2")
    }))
    image = pack_tree(tree, aggregated=kwargs.get("aggregated", True))
    return ExpCutsEngine(image, use_pop_count=kwargs.get("use_pop_count", True)), tree


class TestScalarLookup:
    def test_matches_tree_walk(self, tiny_ruleset):
        engine, tree = _engine(tiny_ruleset)
        headers = [
            (0x0A000001, 0xC0A80105, 12345, 80, 6),
            (0, 0, 0, 0, 0),
            (0xFFFFFFFF, 0xFFFFFFFF, 65535, 65535, 255),
        ]
        for header in headers:
            assert engine.classify(header) == tree.classify(header)

    def test_unaggregated_image(self, tiny_ruleset):
        engine, tree = _engine(tiny_ruleset, aggregated=False)
        header = (0x0A000001, 0xC0A80105, 12345, 80, 6)
        assert engine.classify(header) == tree.classify(header) == 0

    def test_risc_popcount_same_result(self, tiny_ruleset):
        fast, _ = _engine(tiny_ruleset, use_pop_count=True)
        slow, _ = _engine(tiny_ruleset, use_pop_count=False)
        header = (0x0A000001, 0xC0A80105, 12345, 80, 6)
        assert fast.classify(header) == slow.classify(header)


class TestScalarWalkEquivalence:
    """The fast scalar walk gives the answer of every other path — the
    traced walk, the batch walk, the IR tree and the linear oracle — on
    headers at every rule edge, for each image variant."""

    @staticmethod
    def _assert_all_paths_agree(clf, ruleset, expected=None):
        headers = boundary_headers(ruleset)
        want = expected or ruleset.first_match
        scalar = [clf.engine.classify(h) for h in headers]
        assert scalar == [want(h) for h in headers]
        assert scalar == [clf.tree.classify(h) for h in headers]
        assert scalar == [clf.access_trace(h).result for h in headers]
        batch = clf.classify_batch([np.array(col, dtype=np.uint32)
                                    for col in zip(*headers)])
        assert batch.tolist() == [-1 if r is None else r for r in scalar]

    @pytest.mark.parametrize("use_pop_count", [True, False])
    @pytest.mark.parametrize("stride", [4, 8])
    @pytest.mark.parametrize("aggregated", [True, False])
    def test_image_variants(self, small_fw_ruleset, aggregated, stride,
                            use_pop_count):
        # Without the default rule some leaves are no-match leaves.
        ruleset = RuleSet(small_fw_ruleset.rules[:-1])
        clf = ExpCutsClassifier.build(ruleset, stride=stride,
                                      aggregated=aggregated,
                                      use_pop_count=use_pop_count)
        self._assert_all_paths_agree(clf, ruleset)
        assert None in map(clf.classify, boundary_headers(ruleset))

    @pytest.mark.parametrize("aggregated", [True, False])
    def test_pickle_round_trip(self, small_cr_ruleset, aggregated):
        clf = ExpCutsClassifier.build(small_cr_ruleset, aggregated=aggregated)
        # The bypass image and the key table are derived state: never
        # pickled (a memoryview could not be), rebuilt after load.
        assert set(clf.engine.__getstate__()) == {
            "image", "schedule", "use_pop_count"}
        loaded = pickle.loads(pickle.dumps(clf))
        self._assert_all_paths_agree(loaded, small_cr_ruleset)

    def test_after_incremental_insert(self, small_fw_ruleset):
        ruleset = RuleSet(list(small_fw_ruleset))
        clf = ExpCutsClassifier.build(ruleset)
        new_id = len(ruleset)
        ruleset.append(Rule.from_prefixes(sip="10.1.0.0/16", dip="10.2.0.0/15",
                                          dport=(80, 443), proto=6))
        # The new rule outranks every existing one.
        assert clf.insert_rule(new_id, lambda existing: True)
        clf._ensure_image()
        # The edit leaves unreachable nodes in the repacked image; the
        # scalar walk's bypass image is derived from the reachable ones.
        assert clf.tree.build_stats["garbage_words"] > 0
        oracle = RuleSet([ruleset[new_id]] + list(ruleset)[:new_id])

        def expected(header):
            first = oracle.first_match(header)
            if first is None:
                return None
            return new_id if first == 0 else first - 1

        self._assert_all_paths_agree(clf, ruleset, expected)


class _CountingWords:
    """Stands in for the bypass image's word view, counting reads."""

    def __init__(self, words):
        self.words, self.reads = words, 0

    def __getitem__(self, index):
        self.reads += 1
        return self.words[index]


def _bypass_nodes(engine):
    """``(offset, header word, pointers)`` of every bypass-image node."""
    words = engine._bypass.words
    nodes, pos = [], 0
    while pos < len(words):
        hw = words[pos]
        count = (hw & 0xFFFF).bit_count() << ((hw >> 20) & 0xF)
        nodes.append((pos, hw, words[pos + 1:pos + 1 + count].tolist()))
        pos += 1 + count
    assert pos == len(words)
    return nodes


def _nodes_visited(engine, header, through_table=False):
    """Nodes the scalar walk reads for ``header`` (two words each).

    By default the walk enters at the bypass root through a zero-level
    root table, so the count includes the nodes a real root table
    resolves; ``through_table`` counts only the nodes read past the real
    table's entry."""
    walk = engine._walk
    words = _CountingWords(walk.words)
    if through_table:
        fake = SimpleNamespace(words=words, table=walk.table,
                               levels=walk.levels, field=walk.field,
                               shift=walk.shift, mask=walk.mask)
    else:
        fake = SimpleNamespace(words=words, table=[engine._bypass.root],
                               levels=0, field=0, shift=0, mask=0)
    engine._walk = fake
    try:
        engine.classify(header)
        return words.reads // 2
    finally:
        engine._walk = walk


def _hand_tree(nodes, root_ref=0):
    """An ExpCuts tree made of ``(level, 256 child refs)`` nodes."""
    schedule = build_expcuts(RuleSet([Rule.any()])).schedule
    return ExpCutsTree(
        stride=8, habs_bits_log2=4, schedule=schedule,
        nodes=[InternalNode(level, compress(refs, 4)) for level, refs in nodes],
        root_ref=root_ref, num_rules=2)


#: SHA-256 of a built ``small_cr_ruleset`` classifier's snapshot payload
#: per image variant, pinned from before any derived walk state existed.
PINNED_PICKLES = [
    (True, "4f9eb2dcc805aec372249b95c3af9eee29a5f23ba372c653b30ad7fc5d46362d"),
    (False, "114b1f0a53ee33228ee1d98fcb1ec951c22830df9f2b22bfb55c7b83753d3ac9"),
]


class TestBypassImage:
    """The scalar walk's derived image skips one-child nodes and still
    gives every other path's answer."""

    @pytest.mark.parametrize("aggregated", [True, False])
    def test_one_child_root(self, aggregated):
        # Only dport is constrained, so the four sip and four dip levels
        # (and both sport levels) cut nothing: the root is one-child.
        ruleset = RuleSet([Rule.from_prefixes(dport=(80, 80), proto=6),
                           Rule.from_prefixes(dport=(1000, 2000)),
                           Rule.any()])
        clf = ExpCutsClassifier.build(ruleset, aggregated=aggregated)
        root = clf.tree.nodes[clf.tree.root_ref]
        assert len(set(root.children.cpa)) == 1
        bypass = clf.engine._bypass
        assert bypass.words[bypass.root] >> 24 == 10  # the first dport level
        TestScalarWalkEquivalence._assert_all_paths_agree(clf, ruleset)
        # Both dport levels, then proto: the ten levels above are skipped.
        assert _nodes_visited(clf.engine, (1, 2, 3, 80, 6)) == 3

    @pytest.mark.parametrize("aggregated", [True, False])
    def test_one_child_chain_ends_in_leaf_and_no_match(self, aggregated):
        # Root: sip high byte < 128 -> node 1 -> node 2 -> rule 0; the
        # upper half is a no-match leaf.  Nodes 1 and 2 are one-child.
        tree = _hand_tree([
            (0, [1] * 128 + [REF_NO_MATCH] * 128),
            (1, [2] * 256),
            (2, [leaf_ref(0)] * 256),
        ])
        engine = ExpCutsEngine(pack_tree(tree, aggregated=aggregated))
        words = engine._bypass.words
        assert len(words) == 1 + (256 if not aggregated else 2 * 16)
        assert set(words[1:].tolist()) == {int(LEAF_FLAG) | 1, int(LEAF_FLAG)}
        for sip, want in ((0, 0), (0x7FFF_FFFF, 0), (0x8000_0000, None),
                          (0xFFFF_FFFF, None)):
            header = (sip, 0, 0, 0, 0)
            assert engine.classify(header) == tree.classify(header) == want
            assert engine.access_trace(header).result == want
            assert _nodes_visited(engine, header) == 1

    def test_one_child_root_chain_to_leaf(self):
        tree = _hand_tree([(0, [1] * 256), (1, [leaf_ref(1)] * 256)])
        engine = ExpCutsEngine(pack_tree(tree))
        assert len(engine._bypass.words) == 0
        assert engine._bypass.root == int(LEAF_FLAG) | 2
        assert engine.classify((1, 2, 3, 4, 5)) == tree.classify(
            (1, 2, 3, 4, 5)) == 1
        # The modelled walk still charges both levels.
        assert len(engine.access_trace((1, 2, 3, 4, 5)).reads) == 4

    def test_shared_one_child_nodes_merge(self):
        # Two distinct one-child nodes that end at the same node make
        # their parent one-child too.
        tree = _hand_tree([
            (0, [1] * 128 + [2] * 128),
            (1, [3] * 256),
            (1, [3] * 256),
            (2, [leaf_ref(0)] * 100 + [leaf_ref(1)] * 156),
        ])
        engine = ExpCutsEngine(pack_tree(tree))
        assert [hw >> 24 for _, hw, _ in _bypass_nodes(engine)] == [2]
        for sip in (0, 99 << 8, 100 << 8, 0xFFFF_FFFF):
            header = (sip, 0, 0, 0, 0)
            assert engine.classify(header) == tree.classify(header)

    @pytest.mark.parametrize("aggregated", [True, False])
    def test_derived_image_has_no_one_child_node(self, small_cr_ruleset,
                                                 aggregated):
        clf = ExpCutsClassifier.build(small_cr_ruleset, aggregated=aggregated)
        one_child = [n for n in clf.tree.nodes
                     if len(set(n.children.cpa)) == 1]
        assert one_child  # the real image has some to skip
        nodes = _bypass_nodes(clf.engine)
        offsets = {offset for offset, _, _ in nodes}
        assert len(nodes) < len(clf.tree.nodes)
        for _, _, pointers in nodes:
            assert len(set(pointers)) > 1
            assert all(p & int(LEAF_FLAG) or p in offsets for p in pointers)

    @pytest.mark.parametrize("name", ["CR01", "FW03"])
    def test_fewer_nodes_visited_on_paper_sets(self, name):
        ruleset = paper_ruleset(name)
        clf = ExpCutsClassifier.build(ruleset)
        trace = matched_trace(ruleset, 300, seed=7)
        visited, levels = [], []
        for header in trace.headers():
            header = tuple(int(v) for v in header)
            visited.append(_nodes_visited(clf.engine, header))
            levels.append(len(clf.access_trace(header).reads) // 2)
            assert visited[-1] <= levels[-1]
        # The modelled walk reads 12.8-13 levels per lookup on these sets.
        assert statistics.mean(levels) > 12.5
        assert statistics.mean(visited) < 10

    @pytest.mark.parametrize("aggregated, digest", PINNED_PICKLES)
    def test_pickled_bytes_unchanged(self, small_cr_ruleset, aggregated,
                                     digest):
        """The snapshot payload (``pickle.HIGHEST_PROTOCOL``) of a built
        classifier, pinned from before the bypass image existed: the
        derived image never reaches a snapshot or cache file."""
        clf = ExpCutsClassifier.build(small_cr_ruleset, aggregated=aggregated)
        payload = pickle.dumps(clf, protocol=pickle.HIGHEST_PROTOCOL)
        assert hashlib.sha256(payload).hexdigest() == digest
        loaded = pickle.loads(payload)
        assert loaded.engine._bypass is clf.engine._bypass

    def test_derived_on_first_lookup_and_released_with_its_engine(self):
        # A rule set no other test builds, so no other engine shares the
        # derived image.
        ruleset = RuleSet([Rule.from_prefixes(sip="10.9.0.0/16", dport=7),
                           Rule.any()])
        engine = ExpCutsEngine(ExpCutsClassifier.build(ruleset).image)
        assert "_bypass" not in engine.__dict__  # batch/trace-only engines
        engine.classify((0, 0, 0, 0, 0))
        words = weakref.ref(engine._bypass.words.obj)
        engine.image = engine.image  # a new image drops the derived one
        assert words() is None and "_bypass" not in engine.__dict__
        engine.classify((0, 0, 0, 0, 0))
        words = weakref.ref(engine._bypass.words.obj)
        del engine
        assert words() is None

    def test_equal_images_share_one_bypass(self, small_cr_ruleset,
                                           small_fw_ruleset):
        first = ExpCutsClassifier.build(small_cr_ruleset).engine
        again = ExpCutsClassifier.build(small_cr_ruleset).engine
        assert again.image is not first.image
        assert again._bypass is first._bypass
        for other in (ExpCutsClassifier.build(small_fw_ruleset),
                      ExpCutsClassifier.build(small_cr_ruleset,
                                              aggregated=False)):
            assert other.engine._bypass is not first._bypass

    @pytest.mark.parametrize("sip", ["10.0.0.0/8", None])
    def test_shrunk_schedule_still_trips_the_watchdog(self, sip):
        """A one-level schedule under a deeper tree raises, whether the
        walk runs out of iterations (a branching root) or meets a node
        tagged past the schedule (a one-child root, skipped to level 4)."""
        ruleset = RuleSet([Rule.from_prefixes(sip=sip, dip="192.168.1.0/24"),
                           Rule.from_prefixes(dip="10.0.0.0/8"),
                           Rule.any()])
        engine = ExpCutsClassifier.build(ruleset).engine
        bypass = engine._bypass
        assert bypass.words[bypass.root] >> 24 == (0 if sip else 4)
        headers = boundary_headers(ruleset)
        assert max(_nodes_visited(engine, h) for h in headers) > 1
        engine.schedule = engine.schedule[:1]
        with pytest.raises(DepthBoundExceededError):
            for header in headers:
                engine.classify(header)


class TestRootTable:
    """Each scalar walk enters through a derived root table over the
    schedule's leading 16 bits, and still gives every other path's
    answer."""

    @pytest.mark.parametrize("stride, levels, shift", [
        (8, 2, 16), (4, 4, 16), (12, 1, 20), (16, 1, 16)])
    def test_covers_the_leading_sixteen_bits(self, small_cr_ruleset, stride,
                                             levels, shift):
        clf = ExpCutsClassifier.build(small_cr_ruleset, stride=stride)
        walk = clf.engine._walk
        assert (walk.levels, walk.field, walk.shift) == (levels, 0, shift)
        # Two 16-bit steps at stride 16 would need 2**32 entries: the
        # table stops after the first.
        assert len(walk.table) == walk.mask + 1 <= 1 << 16
        TestScalarWalkEquivalence._assert_all_paths_agree(clf,
                                                          small_cr_ruleset)

    def test_one_step_schedule(self):
        tree = _hand_tree([(0, [leaf_ref(0)] * 100 + [REF_NO_MATCH] * 156)])
        engine = ExpCutsEngine(pack_tree(tree))
        engine.schedule = engine.schedule[:1]
        assert engine._walk.levels == 1 and len(engine._walk.table) == 256
        for sip, want in ((0, 0), (99 << 24 | 0xFFFFFF, 0), (100 << 24, None),
                          (0xFFFF_FFFF, None)):
            header = (sip, 0, 0, 0, 0)
            assert engine.classify(header) == tree.classify(header) == want
            assert _nodes_visited(engine, header, through_table=True) == 0

    def test_leaf_root(self):
        tree = _hand_tree([], root_ref=leaf_ref(1))
        engine = ExpCutsEngine(pack_tree(tree))
        assert set(engine._walk.table) == {int(LEAF_FLAG) | 2}
        headers = [(1, 2, 3, 4, 5), (0xFFFF_FFFF, 0, 0, 0, 0)]
        assert engine.classify_many(headers) == [1, 1]
        assert [tree.classify(h) for h in headers] == [1, 1]

    @pytest.mark.parametrize("aggregated", [True, False])
    def test_one_child_root_chain_ends_past_the_table(self, aggregated):
        # The root chain skips every source and destination level, so
        # each table entry is the bypass root, tagged level 10.
        ruleset = RuleSet([Rule.from_prefixes(dport=(80, 80), proto=6),
                           Rule.from_prefixes(dport=(1000, 2000)),
                           Rule.any()])
        clf = ExpCutsClassifier.build(ruleset, aggregated=aggregated)
        bypass, walk = clf.engine._bypass, clf.engine._walk
        assert bypass.words[bypass.root] >> 24 == 10 and walk.levels == 2
        assert set(walk.table) == {bypass.root}
        assert _nodes_visited(clf.engine, (1, 2, 3, 80, 6),
                              through_table=True) == 3
        TestScalarWalkEquivalence._assert_all_paths_agree(clf, ruleset)

    @pytest.mark.parametrize("name", ["CR01", "FW03"])
    def test_table_resolves_the_source_levels(self, name):
        ruleset = paper_ruleset(name)
        clf = ExpCutsClassifier.build(ruleset)
        engine = clf.engine
        walk = engine._walk
        headers = [tuple(int(v) for v in header)
                   for header in matched_trace(ruleset, 300, seed=7).headers()]
        past, visited = [], []
        for header in headers:
            past.append(_nodes_visited(engine, header, through_table=True))
            visited.append(_nodes_visited(engine, header))
            assert past[-1] <= visited[-1]
            assert walk.levels + past[-1] <= len(engine.schedule)
        # The walk no longer reads the source-address levels 0-1.
        assert statistics.mean(visited) - statistics.mean(past) > 1
        assert engine.classify_many(headers) == [
            ruleset.first_match(h) for h in headers]

    def test_cycle_past_the_table_reads_at_most_the_schedule(self,
                                                             small_cr_ruleset):
        """A corrupted image whose node points back at itself: the walk
        reads the nodes the table leaves over, then the watchdog trips."""
        engine = ExpCutsClassifier.build(small_cr_ruleset).engine
        walk = engine._walk
        # One level-4 node, one HABS bit, u = 4: 16 pointers to itself.
        words = _CountingWords([4 << 24 | 4 << 20 | 1] + [0] * 16)
        engine._walk = SimpleNamespace(
            words=words, table=[0] * (walk.mask + 1), levels=walk.levels,
            field=walk.field, shift=walk.shift, mask=walk.mask)
        try:
            with pytest.raises(DepthBoundExceededError):
                engine.classify((0, 0, 0, 0, 0))
        finally:
            engine._walk = walk
        assert walk.levels + words.reads // 2 == len(engine.schedule)

    def test_schedule_reassigned_after_first_lookup(self, small_cr_ruleset):
        clf = ExpCutsClassifier.build(small_cr_ruleset)
        engine = clf.engine
        headers = boundary_headers(small_cr_ruleset)
        want = engine.classify_many(headers)
        full = engine._walk
        engine.schedule = engine.schedule[:1]
        assert "_walk" not in engine.__dict__
        assert engine._walk.levels == 1 and len(engine._walk.table) == 256
        with pytest.raises(DepthBoundExceededError):
            engine.classify_many(headers)
        engine.schedule = clf.tree.schedule
        assert engine._walk is full  # an equal schedule: the same table
        assert engine.classify_many(headers) == want

    def test_equal_engines_share_one_table(self, small_cr_ruleset):
        first = ExpCutsClassifier.build(small_cr_ruleset).engine
        again = ExpCutsClassifier.build(small_cr_ruleset).engine
        assert again._walk is first._walk
        other = ExpCutsClassifier.build(small_cr_ruleset, stride=4).engine
        assert other._walk is not first._walk

    def test_released_with_its_engine(self):
        ruleset = RuleSet([Rule.from_prefixes(sip="10.11.0.0/16", dport=9),
                           Rule.any()])
        engine = ExpCutsEngine(ExpCutsClassifier.build(ruleset).image)
        table = weakref.ref(engine._walk)
        engine.image = engine.image
        assert table() is None and "_walk" not in engine.__dict__
        table = weakref.ref(engine._walk)
        del engine
        assert table() is None

    @pytest.mark.parametrize("aggregated, digest", PINNED_PICKLES)
    def test_derived_table_never_reaches_the_pickle(self, small_cr_ruleset,
                                                    aggregated, digest):
        clf = ExpCutsClassifier.build(small_cr_ruleset, aggregated=aggregated)
        clf.classify((0, 0, 0, 0, 0))
        assert "_walk" in clf.engine.__dict__
        payload = pickle.dumps(clf, protocol=pickle.HIGHEST_PROTOCOL)
        assert hashlib.sha256(payload).hexdigest() == digest
        assert pickle.loads(payload).engine._walk is clf.engine._walk


class TestTrace:
    def test_explicit_access_bound(self, tiny_ruleset):
        """The paper's headline: 2 single-word reads per level, max 13
        levels — an explicit worst case, unlike HiCuts."""
        engine, tree = _engine(tiny_ruleset)
        for header in ((0, 0, 0, 0, 0), (0x0A000001, 1, 2, 80, 6)):
            trace = engine.access_trace(header)
            assert trace.total_accesses <= 2 * tree.depth_bound
            assert all(read.nwords == 1 for read in trace.reads)
            assert trace.result == engine.classify(header)

    def test_trace_regions_are_levels(self, tiny_ruleset):
        engine, _ = _engine(tiny_ruleset)
        trace = engine.access_trace((0x0A000001, 1, 2, 80, 6))
        regions = [read.region for read in trace.reads]
        # header+pointer pairs per level, levels ascending
        assert regions == sorted(regions, key=lambda r: int(r.split(":")[1]))
        assert regions[0] == "level:0"

    def test_risc_trace_costs_more_compute(self, tiny_ruleset):
        fast, _ = _engine(tiny_ruleset, use_pop_count=True)
        slow, _ = _engine(tiny_ruleset, use_pop_count=False)
        header = (0x0A000001, 0xC0A80105, 12345, 80, 6)
        assert (
            slow.access_trace(header).total_compute
            > fast.access_trace(header).total_compute
        )


class TestBatch:
    def test_batch_matches_scalar(self, small_fw_ruleset):
        engine, _ = _engine(small_fw_ruleset)
        rng = np.random.default_rng(5)
        fields = [
            rng.integers(0, 1 << 32, size=256, dtype=np.uint32),
            rng.integers(0, 1 << 32, size=256, dtype=np.uint32),
            rng.integers(0, 1 << 16, size=256, dtype=np.uint32),
            rng.integers(0, 1 << 16, size=256, dtype=np.uint32),
            rng.integers(0, 1 << 8, size=256, dtype=np.uint32),
        ]
        batch = engine.classify_batch(fields)
        for idx in range(256):
            header = tuple(int(f[idx]) for f in fields)
            expected = engine.classify(header)
            assert batch[idx] == (-1 if expected is None else expected)

    def test_empty_batch(self, tiny_ruleset):
        engine, _ = _engine(tiny_ruleset)
        out = engine.classify_batch([np.array([], dtype=np.uint32)] * 5)
        assert out.shape == (0,)

    def test_batch_unaggregated(self, tiny_ruleset):
        engine, _ = _engine(tiny_ruleset, aggregated=False)
        fields = [np.array([0x0A000001], dtype=np.uint32),
                  np.array([0xC0A80105], dtype=np.uint32),
                  np.array([12345], dtype=np.uint32),
                  np.array([80], dtype=np.uint32),
                  np.array([6], dtype=np.uint32)]
        assert engine.classify_batch(fields).tolist() == [0]


@given(ruleset_strategy(max_rules=7), header_strategy())
@settings(max_examples=40, deadline=None)
def test_all_paths_agree_property(ruleset, header):
    """Scalar, batch, trace and tree walk: one answer."""
    tree = build_expcuts(ruleset)
    engine = ExpCutsEngine(pack_tree(tree))
    scalar = engine.classify(header)
    assert scalar == tree.classify(header)
    assert scalar == engine.access_trace(header).result
    batch = engine.classify_batch(
        [np.array([v], dtype=np.uint32) for v in header]
    )
    assert batch[0] == (-1 if scalar is None else scalar)
