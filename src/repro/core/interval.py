"""Closed integer intervals and prefix/range arithmetic.

All packet-classification fields are modelled as closed integer intervals
``[lo, hi]`` over an unsigned domain of a fixed bit width.  CIDR prefixes,
exact values and wildcards are all special cases of intervals, which lets
every classifier in this library share one geometric vocabulary.
"""

from __future__ import annotations

from typing import NamedTuple


class Interval(NamedTuple):
    """A closed integer interval ``[lo, hi]`` with ``lo <= hi``."""

    lo: int
    hi: int

    @property
    def size(self) -> int:
        """Number of integer points covered by the interval."""
        return self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` is entirely inside ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def is_power_of_two_aligned(self) -> bool:
        """True when the interval is an aligned power-of-two block.

        Such blocks are exactly the regions expressible as a single binary
        prefix; ExpCuts cutting only ever produces aligned blocks.
        """
        size = self.size
        if size & (size - 1):
            return False
        return self.lo % size == 0


def full_interval(width: int) -> Interval:
    """The whole domain of a ``width``-bit unsigned field."""
    if width <= 0:
        raise ValueError(f"field width must be positive, got {width}")
    return Interval(0, (1 << width) - 1)


def prefix_to_interval(value: int, prefix_len: int, width: int) -> Interval:
    """Convert a binary prefix to its covered interval.

    ``value`` holds the full ``width``-bit pattern whose top ``prefix_len``
    bits are significant (the rest are ignored), mirroring the usual
    ``a.b.c.d/len`` notation.
    """
    if not 0 <= prefix_len <= width:
        raise ValueError(f"prefix length {prefix_len} out of range for width {width}")
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {value:#x} out of range for width {width}")
    span = width - prefix_len
    lo = (value >> span) << span
    hi = lo + (1 << span) - 1
    return Interval(lo, hi)


def interval_to_prefixes(interval: Interval, width: int) -> list[tuple[int, int]]:
    """Decompose an interval into a minimal list of ``(value, prefix_len)``.

    This is the classic range-to-prefix expansion used when loading range
    rules into prefix-only structures (e.g. TCAM entries, tries); an
    arbitrary ``width``-bit range expands into at most ``2*width - 2``
    prefixes.
    """
    if not 0 <= interval.lo <= interval.hi < (1 << width):
        raise ValueError(f"interval {interval} out of range for width {width}")
    prefixes: list[tuple[int, int]] = []
    lo, hi = interval.lo, interval.hi
    while lo <= hi:
        # Largest aligned block starting at lo that still fits in [lo, hi].
        max_align = lo & -lo if lo else 1 << width
        size = 1
        while size < max_align and lo + size * 2 - 1 <= hi:
            size *= 2
        span = size.bit_length() - 1
        prefixes.append((lo, width - span))
        lo += size
    return prefixes


def split_equal(interval: Interval, parts: int) -> list[Interval]:
    """Split an interval into ``parts`` equal-size sub-intervals.

    ``parts`` must divide the interval size exactly (all cutting in this
    library operates on aligned power-of-two blocks, where that always
    holds).
    """
    size = interval.size
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if size % parts:
        raise ValueError(f"cannot split interval of size {size} into {parts} equal parts")
    step = size // parts
    return [Interval(interval.lo + i * step, interval.lo + (i + 1) * step - 1) for i in range(parts)]


def elementary_edges(intervals: list[Interval], width: int) -> list[int]:
    """Left endpoints of the elementary segments induced by ``intervals``.

    Always includes 0, so the result is a partition of the full domain:
    segment ``i`` spans ``[edges[i], edges[i+1] - 1]`` (the last one runs to
    the domain maximum).
    """
    domain_hi = (1 << width) - 1
    edges = {0}
    for iv in intervals:
        if iv.lo > 0:
            edges.add(iv.lo)
        if iv.hi < domain_hi:
            edges.add(iv.hi + 1)
    return sorted(edges)
