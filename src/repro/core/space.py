"""Multi-dimensional search-space geometry shared by all cutting algorithms.

A :class:`Box` is the axis-aligned region of 5-tuple space covered by one
decision-tree node.  Both HiCuts and ExpCuts repeatedly cut boxes into
equal sub-boxes along one dimension; the geometry (intersection, cover
tests, projection normalisation) lives here so tree builders stay small.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .fields import FIELD_WIDTHS, Field
from .interval import Interval, full_interval, split_equal
from .rule import Rule


class Box(NamedTuple):
    """An axis-aligned 5-dimensional region (one interval per field)."""

    intervals: tuple[Interval, ...]

    @classmethod
    def full(cls) -> "Box":
        """The whole 5-tuple space."""
        return cls(tuple(full_interval(w) for w in FIELD_WIDTHS))

    def contains_header(self, header: Sequence[int]) -> bool:
        return all(iv.lo <= v <= iv.hi for iv, v in zip(self.intervals, header))

    def intersects_rule(self, rule: Rule) -> bool:
        return all(a.overlaps(b) for a, b in zip(self.intervals, rule.intervals))

    def rule_covers(self, rule: Rule) -> bool:
        """Whether ``rule`` covers this entire box."""
        return all(b.contains_interval(a) for a, b in zip(self.intervals, rule.intervals))

    def cut(self, fld: Field, parts: int) -> list["Box"]:
        """Cut the box into ``parts`` equal sub-boxes along ``fld``."""
        pieces = split_equal(self.intervals[fld], parts)
        return [
            Box(self.intervals[:fld] + (piece,) + self.intervals[fld + 1:])
            for piece in pieces
        ]

    def point_count(self) -> int:
        """Number of distinct headers inside the box."""
        count = 1
        for iv in self.intervals:
            count *= iv.size
        return count

    def is_point(self) -> bool:
        return all(iv.lo == iv.hi for iv in self.intervals)


class ProjectedRule(NamedTuple):
    """A rule clipped to a node box, with intervals normalised to the box.

    ``rule_id`` is the rule's global priority index.  ``intervals`` are the
    rule's intervals intersected with the box and translated so the box
    origin is 0 in every dimension.  Two node boxes whose projected rule
    lists are identical induce *identical subtrees* when all subsequent
    cuts depend only on the not-yet-consumed header bits — this is the
    soundness condition behind node sharing (the paper's child-node reuse,
    Figure 2), and it is stronger than merely comparing rule-id sets, which
    would be unsound for partially-overlapping ranges.
    """

    rule_id: int
    intervals: tuple[Interval, ...]


def initial_projection(rules: Sequence[Rule]) -> tuple[ProjectedRule, ...]:
    """The root projection: every rule relative to the full space."""
    return tuple(
        ProjectedRule(idx, tuple(rule.intervals)) for idx, rule in enumerate(rules)
    )


def covers_box_widths(pr: ProjectedRule, widths: Sequence[int]) -> bool:
    """Whether a projected rule covers a (normalised) box of given widths.

    ``widths`` holds the remaining bit width per field, i.e. the box spans
    ``[0, 2**width - 1]`` in each dimension of its own coordinate frame.
    """
    return all(
        iv.lo == 0 and iv.hi == (1 << w) - 1 for iv, w in zip(pr.intervals, widths)
    )
