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
from ..core.errors import UpdateError
from ..core.fields import NUM_FIELDS
from ..core.rule import Rule, RuleSet
from ..obs.trace import DecisionTrace
from .base import MemoryRegion, PacketClassifier

#: SRAM words per stored rule (paper §6.6: "6 consecutive 32-bits words").
RULE_WORDS = 6

#: ME cycles to compare one loaded rule against header registers
#: (5 range compares + branch).
RULE_COMPARE_CYCLES = 12

_U32_MAX = (1 << 32) - 1


class LinearSearchClassifier(PacketClassifier):
    """Priority-ordered scan of the whole rule table."""

    name = "linear"

    def __init__(self, ruleset: RuleSet) -> None:
        super().__init__(ruleset)
        # Field-major uint32 bounds for classify_batch, (5, num_rules):
        # each rule's lo and its span hi - lo.
        rules = ruleset.rules
        self._lo = np.array(
            [[r.intervals[f].lo for r in rules] for f in range(NUM_FIELDS)],
            dtype=np.uint32).reshape(NUM_FIELDS, len(rules))
        self._span = np.array(
            [[r.intervals[f].hi - r.intervals[f].lo for r in rules]
             for f in range(NUM_FIELDS)],
            dtype=np.uint32).reshape(NUM_FIELDS, len(rules))

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

    def insert(self, rule: Rule, position: int) -> None:
        """Insert ``rule`` at priority ``position``, keeping the batch
        bounds in step with the live rule list."""
        if not 0 <= position <= len(self.ruleset):
            raise UpdateError(f"position {position} out of range")
        self.ruleset.rules.insert(position, rule)
        self._lo = np.insert(self._lo, position,
                             [iv.lo for iv in rule.intervals], axis=1)
        self._span = np.insert(self._span, position,
                               [iv.hi - iv.lo for iv in rule.intervals],
                               axis=1)

    def remove(self, position: int) -> Rule:
        """Remove the rule at priority ``position``; returns it."""
        if not 0 <= position < len(self.ruleset):
            raise UpdateError(f"position {position} out of range")
        self._lo = np.delete(self._lo, position, axis=1)
        self._span = np.delete(self._span, position, axis=1)
        return self.ruleset.rules.pop(position)

    def classify_batch(self, fields: Sequence[np.ndarray]) -> np.ndarray:
        """First-match rule index per header, ``-1`` for none.

        ``fields`` are five parallel arrays; ``rows.T`` of an ``(n, 5)``
        uint32 header block is read as it is, without a copy.  Every
        field of every header meets every rule in one ``(n, 5, rules)``
        plane of ``(x - lo) <= span`` in uint32 arithmetic: a value below
        ``lo`` wraps past every span, so one subtract and one compare
        decide both bounds.  Fields of another dtype are range-checked
        once; a header with a value outside ``[0, 2**32)`` matches no
        rule.
        """
        block = np.asarray(fields)
        valid = None
        if block.dtype != np.uint32:
            block = block.astype(np.int64, copy=False)
            valid = ((block >= 0) & (block <= _U32_MAX)).all(axis=0)
            block = block.astype(np.uint32)
        n = block.shape[1]
        if not len(self.ruleset):
            return np.full(n, -1, dtype=np.int64)
        diff = np.subtract(block.T[:, :, None], self._lo)
        match = np.less_equal(diff, self._span).all(axis=1)
        if valid is not None:
            match &= valid[:, None]
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
