"""Linear search — the semantic ground truth and cost yardstick.

Every rule occupies the paper's 6 consecutive 32-bit words (two IPs, two
port ranges packed, protocol+action, priority/metadata), and a lookup
reads rule entries in priority order until one matches — exactly the
per-leaf behaviour HiCuts relies on and ExpCuts eliminates (§4.2.1,
Figure 8).

The batch path (the fabric's audit oracle) does not scan: it narrows
each header to the rules of one elementary interval on one field, then
checks only those candidates (see :class:`CandidateIndex`).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class CandidateIndex:
    """The rules of every elementary interval of one field.

    The interval edges (0, every rule's ``lo`` and every ``hi + 1``) cut
    ``field`` into elementary intervals, and each rule either covers an
    interval whole or misses it.  A rule that misses a header's interval
    cannot match the header, so the interval's rules, in priority order,
    are the header's only candidates — the first of them that matches
    on the other four fields is the exact first match.
    """

    #: The indexed field: the one whose busiest interval meets the
    #: fewest rules.
    field: int
    #: The other four fields, in the order :meth:`first_match` tests
    #: them: fewest rules on the busiest interval first.
    others: tuple[int, ...]
    #: Left edge of each interval, ascending from 0 (uint32).
    edges: np.ndarray
    #: Interval ``i``'s candidates are the ``counts[i]`` rules from
    #: ``rules[starts[i]]`` on.
    starts: np.ndarray
    counts: np.ndarray
    #: Candidate rule ids, interval by interval, each in priority order.
    rules: np.ndarray
    #: The indexed classifier's ``(5, rules)`` uint32 bounds (shared).
    lo: np.ndarray
    span: np.ndarray

    @classmethod
    def build(cls, lo: np.ndarray, span: np.ndarray) -> "CandidateIndex":
        """Index the ``(5, rules)`` uint32 bounds on their best field."""
        first_value = lo.astype(np.int64)
        stop_value = first_value + span + 1
        # Each field's busiest interval: sweep its rule starts (+1) and
        # stops (-1) in value order, a stop before a start at the same
        # value, and take the highest running count.
        events = np.sort(np.concatenate(
            (stop_value * 2, first_value * 2 + 1), axis=1), axis=1)
        depth = np.cumsum((events & 1) * 2 - 1, axis=1).max(axis=1)
        order = np.argsort(depth, kind="stable").tolist()
        f = order[0]
        # The field's interval edges: 0 and every distinct rule start and
        # in-range stop, read off its sorted events.
        values = np.concatenate(([0], events[f] >> 1))
        values = values[values <= _U32_MAX]
        edges = values[np.concatenate(([True], values[1:] != values[:-1]))]
        # Rule r covers the count[r] intervals from first[r] on.  One
        # entry per (rule, covered interval), emitted rule by rule; a
        # stable sort by interval keeps each interval's rules in priority
        # order (a radix sort, on the narrowest dtype).
        first = np.searchsorted(edges, first_value[f])
        count = np.searchsorted(edges, stop_value[f]) - first
        owner = np.repeat(np.arange(len(count), dtype=np.int32), count)
        interval = (np.arange(len(owner))
                    + np.repeat(first - np.cumsum(count) + count, count))
        counts = np.bincount(interval, minlength=len(edges))
        by_interval = np.argsort(
            interval.astype(np.min_scalar_type(len(edges))), kind="stable")
        return cls(field=f, others=tuple(order[1:]),
                   edges=edges.astype(np.uint32),
                   starts=np.cumsum(counts) - counts, counts=counts,
                   rules=owner[by_interval], lo=lo, span=span)

    def first_match(self, block: np.ndarray) -> np.ndarray:
        """First-match rule id per column of a ``(5, n)`` uint32 block,
        ``-1`` for none.

        Every header's candidates are laid out in one run, then tested
        field by field in uint32 arithmetic: ``(x - lo) <= span``, since
        a value below ``lo`` wraps past every span, so one subtract and
        one compare decide both bounds.  Each field keeps only the
        candidates it passes, so the later fields test few.
        """
        n = block.shape[1]
        # (ndarray methods: ``take``/``compress`` skip the dispatch that
        # dominates fancy indexing on blocks this small.)
        interval = self.edges.searchsorted(block[self.field], side="right")
        interval -= 1
        count = self.counts.take(interval)
        # Header h owns entries starts[interval[h]] onwards, count[h] of
        # them: one run of every header's candidates.
        header = np.arange(n).repeat(count)
        ends = count.cumsum()
        rules = self.rules.take(
            np.arange(len(header))
            + (self.starts.take(interval) - ends + count).repeat(count))
        for f in self.others:
            x = block[f].take(header)
            x -= self.lo[f].take(rules)
            keep = x <= self.span[f].take(rules)
            header = header.compress(keep)
            rules = rules.compress(keep)
        # Candidates run in priority order, so a header's first survivor
        # is its answer.
        lead = np.empty(len(header), dtype=bool)
        lead[:1] = True
        np.not_equal(header[1:], header[:-1], out=lead[1:])
        out = np.full(n, -1, dtype=np.int64)
        out[header.compress(lead)] = rules.compress(lead)
        return out


class LinearSearchClassifier(PacketClassifier):
    """Priority-ordered scan of the whole rule table (scalar and traced
    lookups; batches check :class:`CandidateIndex` candidates only)."""

    name = "linear"
    #: The batch path's :class:`CandidateIndex`, built on first use and
    #: dropped by every edit.
    _index: CandidateIndex | None = None

    def __init__(self, ruleset: RuleSet) -> None:
        super().__init__(ruleset)
        # Field-major uint32 bounds, (5, num_rules): each rule's lo and
        # its span hi - lo.
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

    def copy(self, name: str) -> "LinearSearchClassifier":
        """An independent classifier over a copy of the rule list, named
        ``name``, built without re-reading any rule: the bound arrays are
        shared, since edits replace them instead of writing into them.
        The index is not carried over."""
        clone = object.__new__(type(self))
        clone.ruleset = RuleSet(list(self.ruleset.rules), name=name)
        clone._lo = self._lo
        clone._span = self._span
        return clone

    def classify(self, header: Sequence[int],
                 trace: DecisionTrace | None = None) -> int | None:
        if trace is None:
            return self.ruleset.first_match(header)
        result = self.access_trace(header, trace).result
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
        self._index = None

    def remove(self, position: int) -> Rule:
        """Remove the rule at priority ``position``; returns it."""
        if not 0 <= position < len(self.ruleset):
            raise UpdateError(f"position {position} out of range")
        self._lo = np.delete(self._lo, position, axis=1)
        self._span = np.delete(self._span, position, axis=1)
        self._index = None
        return self.ruleset.rules.pop(position)

    def drop_index(self) -> None:
        """Free the batch index; the next batch rebuilds it."""
        self._index = None

    def classify_batch(self, fields: Sequence[np.ndarray]) -> np.ndarray:
        """First-match rule index per header, ``-1`` for none.

        ``fields`` are five parallel arrays; ``rows.T`` of an ``(n, 5)``
        uint32 header block is read as it is, without a copy.  Headers
        are checked against their :class:`CandidateIndex` candidates
        only (the index is built on the first call after construction or
        an edit).  Fields of another dtype are range-checked once; a
        header with a value outside ``[0, 2**32)`` matches no rule.
        """
        block = np.asarray(fields)
        valid = None
        if block.dtype != np.uint32:
            block = block.astype(np.int64, copy=False)
            valid = ((block >= 0) & (block <= _U32_MAX)).all(axis=0)
            block = block.astype(np.uint32)
        if not len(self.ruleset):
            return np.full(block.shape[1], -1, dtype=np.int64)
        if self._index is None:
            self._index = CandidateIndex.build(self._lo, self._span)
        out = self._index.first_match(block)
        if valid is not None:
            out[~valid] = -1
        return out

    def access_trace(self, header: Sequence[int],
                     trace: DecisionTrace | None = None) -> LookupTrace:
        """The priority-ordered scan, one 6-word rule read per compare;
        with ``trace`` the same scan records each compare."""
        if trace is not None:
            trace.begin(self.name, header)
        reads = []
        result = None
        for idx, rule in enumerate(self.ruleset.rules):
            reads.append(
                MemRead("rules", idx * RULE_WORDS, RULE_WORDS,
                        RULE_COMPARE_CYCLES if idx else 2)
            )
            matched = rule.matches(header)
            if trace is not None:
                trace.linear("rules", idx * RULE_WORDS, RULE_WORDS,
                             rule=idx, matched=matched)
            if matched:
                result = idx
                break
        if trace is not None:
            trace.finish(result)
        return LookupTrace(tuple(reads), compute_after=RULE_COMPARE_CYCLES,
                           result=result)

    def memory_regions(self) -> list[MemoryRegion]:
        return [MemoryRegion("rules", len(self.ruleset) * RULE_WORDS, 1.0)]
