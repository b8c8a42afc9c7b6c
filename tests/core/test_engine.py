"""Lookup-engine tests: scalar, batch and trace paths must all agree."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.classifiers.expcuts import ExpCutsClassifier
from repro.core.engine import ExpCutsEngine
from repro.core.expcuts import ExpCutsConfig, build_expcuts
from repro.core.layout import pack_tree
from repro.core.rule import Rule, RuleSet

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
        # The per-level memoryview plan is derived state: never pickled
        # (it could not be), rebuilt on load.
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
        oracle = RuleSet([ruleset[new_id]] + list(ruleset)[:new_id])

        def expected(header):
            first = oracle.first_match(header)
            if first is None:
                return None
            return new_id if first == 0 else first - 1

        self._assert_all_paths_agree(clf, ruleset, expected)


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
