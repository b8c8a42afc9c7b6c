"""Linear-search classifier tests (the oracle must itself be right)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers.linear import RULE_WORDS, LinearSearchClassifier
from repro.core.errors import UpdateError
from repro.core.rule import Rule, RuleSet
from repro.serve.transport import apply_shard_ops

from ..conftest import boundary_headers, rule_strategy, ruleset_strategy

U32_MAX = (1 << 32) - 1


class TestClassify:
    def test_priority(self, tiny_ruleset):
        clf = LinearSearchClassifier.build(tiny_ruleset)
        assert clf.classify((0x0A000001, 0xC0A80105, 1, 80, 6)) == 0
        assert clf.classify((0x0B000001, 0xC0A80105, 1, 80, 6)) == 1

    def test_no_match(self):
        clf = LinearSearchClassifier.build(
            RuleSet([Rule.from_prefixes(sip="10.0.0.0/8")])
        )
        assert clf.classify((0x0B000000, 0, 0, 0, 0)) is None

    def test_empty_ruleset(self):
        clf = LinearSearchClassifier.build(RuleSet([]))
        assert clf.classify((0, 0, 0, 0, 0)) is None
        out = clf.classify_batch([np.zeros(3, dtype=np.uint32)] * 5)
        assert out.tolist() == [-1, -1, -1]

    def test_rejects_unknown_params(self, tiny_ruleset):
        with pytest.raises(TypeError):
            LinearSearchClassifier.build(tiny_ruleset, binth=4)

    def test_batch_matches_scalar(self, small_fw_ruleset, rng):
        random_fields = [
            rng.integers(0, 1 << 32, size=64, dtype=np.uint32),
            rng.integers(0, 1 << 32, size=64, dtype=np.uint32),
            rng.integers(0, 1 << 16, size=64, dtype=np.uint32),
            rng.integers(0, 1 << 16, size=64, dtype=np.uint32),
            rng.integers(0, 1 << 8, size=64, dtype=np.uint32),
        ]
        no_default = RuleSet(small_fw_ruleset.rules[:-1])
        misses = 0
        for ruleset in (small_fw_ruleset, no_default, RuleSet([])):
            clf = LinearSearchClassifier.build(ruleset)
            for fields in (random_fields, _boundary_fields(ruleset)):
                headers = list(zip(*(f.tolist() for f in fields)))
                expected = [-1 if want is None else want
                            for want in map(clf.classify, headers)]
                misses += expected.count(-1)
                for dtype in (np.uint32, np.int64):
                    typed = [f.astype(dtype) for f in fields]
                    for size in (1, 64):
                        for lo in range(0, len(headers), size):
                            batch = clf.classify_batch(
                                [f[lo:lo + size] for f in typed])
                            assert batch.tolist() == expected[lo:lo + size]
        assert misses  # the no-match answer was exercised


def _boundary_fields(ruleset: RuleSet) -> list[np.ndarray]:
    """:func:`boundary_headers` as int64 field columns."""
    return [np.array(col, dtype=np.int64) for col in zip(*boundary_headers(ruleset))]


@st.composite
def edge_batch(draw):
    """A rule set and int64 header rows drawn from its field endpoints,
    endpoints +-1, 0, 2**32-1 and values outside [0, 2**32)."""
    ruleset = draw(ruleset_strategy(max_rules=8, prefix_ips=False))
    pools = []
    for f in range(5):
        pool = {0, U32_MAX, -1, 1 << 32, 1 << 40}
        for rule in ruleset:
            iv = rule.intervals[f]
            pool |= {iv.lo, iv.hi, iv.lo - 1, iv.hi + 1}
        pools.append(sorted(pool))
    rows = draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in pools)),
        min_size=1, max_size=24))
    return ruleset, rows


class TestUint32Oracle:
    """The uint32 ``(x - lo) <= span`` batch test against the scalar
    ground truth, on the edges where unsigned wrap-around could lie."""

    @given(edge_batch())
    @settings(max_examples=150, deadline=None)
    def test_matches_first_match(self, case):
        ruleset, rows = case
        clf = LinearSearchClassifier(ruleset)
        want = [-1 if r is None else r
                for r in map(ruleset.first_match, rows)]
        block = np.array(rows, dtype=np.int64)
        assert clf.classify_batch(block.T).tolist() == want
        in_range = [i for i, row in enumerate(rows)
                    if all(0 <= v <= U32_MAX for v in row)]
        packed = block[in_range].astype(np.uint32)
        assert clf.classify_batch(packed.T).tolist() == [want[i]
                                                         for i in in_range]

    def test_out_of_range_rows_match_nothing(self):
        clf = LinearSearchClassifier(RuleSet([Rule.any()]))
        rows = np.array([[0, 0, 0, 0, 0], [-1, 0, 0, 0, 0],
                         [0, 1 << 32, 0, 0, 0], [U32_MAX] * 5],
                        dtype=np.int64)
        assert clf.classify_batch(rows.T).tolist() == [0, -1, -1, -1]


def _first_matches(ruleset: RuleSet, rows) -> list[int]:
    return [-1 if r is None else r for r in map(ruleset.first_match, rows)]


@st.composite
def edit_script(draw, size: int):
    """Edits that stay valid against a rule list of ``size`` rules:
    ``("insert", position, rule)`` / ``("remove", position)``."""
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        if size and draw(st.booleans()):
            ops.append(("remove", draw(st.integers(0, size - 1))))
            size -= 1
        else:
            ops.append(("insert", draw(st.integers(0, size)),
                        draw(rule_strategy(prefix_ips=False))))
            size += 1
    return ops


class TestCandidateIndex:
    """The indexed batch path against ``RuleSet.first_match``."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_edits_after_the_index_exists(self, data):
        ruleset, rows = data.draw(edge_batch())
        clf = LinearSearchClassifier(RuleSet(list(ruleset)))
        block = np.array(rows, dtype=np.int64).T
        assert clf.classify_batch(block).tolist() == _first_matches(
            clf.ruleset, rows)
        assert clf._index is not None
        for op in data.draw(edit_script(len(ruleset))):
            if op[0] == "insert":
                clf.insert(op[2], op[1])
            else:
                clf.remove(op[1])
            assert clf.classify_batch(block).tolist() == _first_matches(
                clf.ruleset, rows)

    @given(st.lists(st.sampled_from(["permit", "deny"]), min_size=1,
                    max_size=40),
           edge_batch())
    @settings(max_examples=50, deadline=None)
    def test_every_rule_wildcard(self, actions, case):
        ruleset = RuleSet([Rule.any(action) for action in actions])
        rows = case[1]
        clf = LinearSearchClassifier(ruleset)
        assert clf.classify_batch(
            np.array(rows, dtype=np.int64).T).tolist() == _first_matches(
                ruleset, rows)
        index = clf._index
        assert (index.counts == len(ruleset)).all()

    @given(edge_batch())
    @settings(max_examples=100, deadline=None)
    def test_rows_outside_the_field_range(self, case):
        ruleset, rows = case
        clf = LinearSearchClassifier(ruleset)
        outside = [row for row in rows
                   if not all(0 <= v <= U32_MAX for v in row)]
        block = np.array(rows + outside, dtype=np.int64).T
        want = _first_matches(ruleset, rows) + [-1] * len(outside)
        assert clf.classify_batch(block).tolist() == want

    @given(edge_batch())
    @settings(max_examples=30, deadline=None)
    def test_empty_ruleset(self, case):
        ruleset, rows = case
        block = np.array(rows, dtype=np.int64).T
        empty = LinearSearchClassifier(RuleSet([]))
        assert empty.classify_batch(block).tolist() == [-1] * len(rows)
        # Emptied by edits after its index was built.
        clf = LinearSearchClassifier(RuleSet(list(ruleset)))
        clf.classify_batch(block)
        while len(clf.ruleset):
            clf.remove(0)
        assert clf.classify_batch(block).tolist() == [-1] * len(rows)
        assert clf.classify_batch(
            block[:, :0].astype(np.uint32)).tolist() == []

    @pytest.mark.parametrize("name, field, busiest", [
        ("CR01", 0, 35), ("FW03", 3, 78)])
    def test_indexed_field(self, name, field, busiest):
        """The index takes the field whose busiest interval meets the
        fewest rules."""
        from repro.harness import get_ruleset

        clf = LinearSearchClassifier(get_ruleset(name))
        clf.classify_batch(np.zeros((5, 1), dtype=np.uint32))
        assert clf._index.field == field
        assert int(clf._index.counts.max()) == busiest

    def test_copy_shares_nothing_mutable(self, tiny_ruleset):
        clf = LinearSearchClassifier(RuleSet(list(tiny_ruleset)))
        clf.classify_batch(np.zeros((5, 1), dtype=np.uint32))
        clone = clf.copy(name="clone")
        assert clone._index is None and clone.ruleset.name == "clone"
        clone.insert(Rule.any(), 0)
        clone.remove(len(clone.ruleset) - 1)
        assert clf.ruleset.rules == tiny_ruleset.rules
        assert clf._lo.shape == (5, len(tiny_ruleset))
        headers = boundary_headers(tiny_ruleset)
        fields = np.array(headers, dtype=np.uint32).T
        assert clf.classify_batch(fields).tolist() == _first_matches(
            tiny_ruleset, headers)
        assert clone.classify_batch(fields).tolist() == [0] * len(headers)


class TestLiveEdits:
    """``insert``/``remove`` keep the batch bounds in step with the rule
    list, so the linear degradation rung answers batches correctly after
    shard edits."""

    def test_shard_ops_on_linear_rung(self, small_fw_ruleset):
        rules = list(small_fw_ruleset)
        clf = LinearSearchClassifier(RuleSet(rules[:20]))
        global_map = list(range(20))
        apply_shard_ops(clf, global_map, [
            ("insert", 0, rules[30], 0),
            ("remove", 5, 5),
            ("insert", 19, rules[-1], 19),
            ("shift", 3, 1),
            ("remove", 1, 1),
        ])
        assert len(clf.ruleset) == len(global_map) == 20
        headers = boundary_headers(clf.ruleset)
        want = [-1 if r is None else r
                for r in map(clf.ruleset.first_match, headers)]
        fields = np.array(headers, dtype=np.uint32).T
        assert clf.classify_batch(fields).tolist() == want
        assert [clf.classify(h) for h in headers] == [
            None if w < 0 else w for w in want]

    def test_edit_positions_validated(self, tiny_ruleset):
        clf = LinearSearchClassifier(RuleSet(list(tiny_ruleset)))
        with pytest.raises(UpdateError):
            clf.insert(Rule.any(), len(tiny_ruleset) + 1)
        with pytest.raises(UpdateError):
            clf.remove(len(tiny_ruleset))
        assert clf.remove(0) == tiny_ruleset[0]
        clf.insert(tiny_ruleset[0], 0)
        assert clf.ruleset.rules == tiny_ruleset.rules
        assert clf._lo.shape == clf._span.shape == (5, len(tiny_ruleset))


class TestCostModel:
    def test_trace_stops_at_match(self, tiny_ruleset):
        clf = LinearSearchClassifier.build(tiny_ruleset)
        trace = clf.access_trace((0x0A000001, 0, 0, 80, 6))
        assert len(trace.reads) == 1  # rule 0 matches immediately
        assert trace.reads[0].nwords == RULE_WORDS

    def test_trace_scans_all_on_miss(self):
        rules = RuleSet([Rule.from_prefixes(sip="10.0.0.0/8")] * 1)
        rules.extend([Rule.from_prefixes(sip="11.0.0.0/8")])
        clf = LinearSearchClassifier.build(rules)
        trace = clf.access_trace((0x0C000000, 0, 0, 0, 0))
        assert len(trace.reads) == len(rules)
        assert trace.result is None

    def test_memory_is_six_words_per_rule(self, tiny_ruleset):
        clf = LinearSearchClassifier.build(tiny_ruleset)
        assert clf.memory_words() == len(tiny_ruleset) * RULE_WORDS
        assert clf.memory_bytes() == clf.memory_words() * 4
