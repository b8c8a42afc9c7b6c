"""Linear-search classifier tests (the oracle must itself be right)."""

import numpy as np
import pytest

from repro.classifiers.linear import RULE_WORDS, LinearSearchClassifier
from repro.core.rule import Rule, RuleSet

from ..conftest import boundary_headers


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
