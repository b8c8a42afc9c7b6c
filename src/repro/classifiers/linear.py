"""Linear search — the semantic ground truth and cost yardstick.

Every rule occupies the paper's 6 consecutive 32-bit words (two IPs, two
port ranges packed, protocol+action, priority/metadata), and a lookup
reads rule entries in priority order until one matches — exactly the
per-leaf behaviour HiCuts relies on and ExpCuts eliminates (§4.2.1,
Figure 8).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.engine import LookupTrace, MemRead
from ..core.fields import NUM_FIELDS
from ..core.rule import RuleSet
from ..obs.trace import DecisionTrace
from .base import MemoryRegion, PacketClassifier

#: SRAM words per stored rule (paper §6.6: "6 consecutive 32-bits words").
RULE_WORDS = 6

#: ME cycles to compare one loaded rule against header registers
#: (5 range compares + branch).
RULE_COMPARE_CYCLES = 12


class LinearSearchClassifier(PacketClassifier):
    """Priority-ordered scan of the whole rule table."""

    name = "linear"

    def __init__(self, ruleset: RuleSet) -> None:
        super().__init__(ruleset)
        # Field-major bounds for classify_batch: (5, num_rules) lo/hi.
        rules = ruleset.rules
        self._lo = np.array(
            [[r.intervals[f].lo for r in rules] for f in range(NUM_FIELDS)],
            dtype=np.int64).reshape(NUM_FIELDS, len(rules))
        self._hi = np.array(
            [[r.intervals[f].hi for r in rules] for f in range(NUM_FIELDS)],
            dtype=np.int64).reshape(NUM_FIELDS, len(rules))

    @classmethod
    def build(cls, ruleset: RuleSet, budget=None,
              **params) -> "LinearSearchClassifier":
        if params:
            raise TypeError(f"unexpected parameters: {sorted(params)}")
        if budget is not None:
            # The slow path must always be buildable: its table is linear
            # in the rule count, so the only meaningful check is the
            # layout wall (6 words per rule).
            meter = budget.meter(cls.name)
            meter.add_words(len(ruleset) * RULE_WORDS)
        return cls(ruleset)

    def classify(self, header: Sequence[int],
                 trace: DecisionTrace | None = None) -> int | None:
        if trace is None:
            return self.ruleset.first_match(header)
        trace.begin(self.name, header)
        result = None
        for idx, rule in enumerate(self.ruleset.rules):
            matched = rule.matches(header)
            trace.linear("rules", idx * RULE_WORDS, RULE_WORDS,
                         rule=idx, matched=matched)
            if matched:
                result = idx
                break
        trace.finish(result)
        self._emit_lookup_metrics(trace)
        return result

    def classify_batch(self, fields: Sequence[np.ndarray]) -> np.ndarray:
        """First-match rule index per header, ``-1`` for none.

        ``fields`` are five parallel uint32 or int64 arrays.  Each field
        is compared against every rule's bounds as one ``(n, rules)``
        boolean plane; the ten planes are ANDed in place and the first
        set column of each row is the answer.
        """
        cols = [np.asarray(f, dtype=np.int64)[:, None] for f in fields]
        n = len(cols[0])
        if not len(self.ruleset):
            return np.full(n, -1, dtype=np.int64)
        match = np.greater_equal(cols[0], self._lo[0])
        plane = np.empty_like(match)
        match &= np.less_equal(cols[0], self._hi[0], out=plane)
        for f in range(1, NUM_FIELDS):
            match &= np.greater_equal(cols[f], self._lo[f], out=plane)
            match &= np.less_equal(cols[f], self._hi[f], out=plane)
        first = match.argmax(axis=1)
        return np.where(match[np.arange(n), first], first, -1)

    def access_trace(self, header: Sequence[int]) -> LookupTrace:
        reads = []
        result = None
        for idx, rule in enumerate(self.ruleset.rules):
            reads.append(
                MemRead("rules", idx * RULE_WORDS, RULE_WORDS,
                        RULE_COMPARE_CYCLES if idx else 2)
            )
            if rule.matches(header):
                result = idx
                break
        return LookupTrace(tuple(reads), compute_after=RULE_COMPARE_CYCLES,
                           result=result)

    def memory_regions(self) -> list[MemoryRegion]:
        return [MemoryRegion("rules", len(self.ruleset) * RULE_WORDS, 1.0)]
