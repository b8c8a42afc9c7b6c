"""Hierarchical Aggregation Bit String (HABS) pointer-array compression.

Section 4.2.2 of the paper.  An ExpCuts internal node conceptually stores
``2**w`` child pointers.  Rather than the full array, the node keeps:

* a ``2**v``-bit HABS, one bit per aligned *sub-array* of ``2**u``
  consecutive pointers (``u = w - v``).  Bit ``m`` is set iff sub-array
  ``m`` differs from sub-array ``m - 1`` (bit 0 is always set);
* a Compressed Pointer Array (CPA) holding only the distinct sub-arrays,
  in order of first appearance.

Pointer ``n`` is recovered as::

    m = n >> u                  # which sub-array
    j = n & (2**u - 1)          # offset inside it
    i = popcount(HABS & ((1 << (m + 1)) - 1)) - 1   # CPA sub-array index
    pointer = CPA[(i << u) + j]

The paper's worked example (Figure 3): a 4-bit HABS over 16 pointers whose
sub-arrays 1..3 repeat sub-array 1's contents gives HABS bits 1,1,0,0 and
looking up sub-space 9 lands on CPA entry 5.  ``tests/core/test_habs.py``
reproduces it literally.

This module is pure compression logic — word-level encoding into the
SRAM image lives in :mod:`repro.core.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .popcount import popcount


@dataclass(frozen=True)
class HabsArray:
    """A pointer array compressed as HABS + CPA.

    ``habs``
        The bit string; bit ``m`` (LSB first) covers sub-array ``m``.
    ``cpa``
        Concatenation of the retained sub-arrays (length =
        ``popcount(habs) * 2**u``).
    ``u``
        log2 of the sub-array length.
    ``v``
        log2 of the number of sub-arrays (HABS width = ``2**v`` bits).
    """

    habs: int
    cpa: tuple[int, ...]
    u: int
    v: int

    @property
    def total_slots(self) -> int:
        """Logical (uncompressed) pointer-array length, ``2**(u + v)``."""
        return 1 << (self.u + self.v)

    def lookup(self, n: int) -> int:
        """Recover logical pointer ``n`` (the paper's 4-step procedure)."""
        if not 0 <= n < self.total_slots:
            raise IndexError(f"pointer index {n} out of range")
        m = n >> self.u
        j = n & ((1 << self.u) - 1)
        i = popcount(self.habs & ((1 << (m + 1)) - 1)) - 1
        return self.cpa[(i << self.u) + j]

    def decompress(self) -> list[int]:
        """The full logical pointer array (inverse of :func:`compress`).

        One pass over the HABS bits: a set bit starts the next retained
        CPA sub-array, a clear bit repeats the current one.
        """
        sub_len = 1 << self.u
        out: list[int] = []
        start = -sub_len
        for m in range(1 << self.v):
            if self.habs >> m & 1:
                start += sub_len
            out.extend(self.cpa[start:start + sub_len])
        return out

    @property
    def compressed_slots(self) -> int:
        """Number of pointer slots actually stored."""
        return len(self.cpa)


def compress(pointers: Sequence[int], v: int) -> HabsArray:
    """Compress a pointer array with a ``2**v``-bit HABS.

    The array length must be a power of two no smaller than ``2**v``;
    ``u`` is derived as ``log2(len) - v``.  Compression is lossless for
    any input, but only effective when consecutive sub-arrays repeat —
    which the fixed-stride cutting of ExpCuts makes overwhelmingly common
    (the paper measures < 10 distinct children per 256-way node on
    real-life rule sets).
    """
    size = len(pointers)
    if size == 0 or size & (size - 1):
        raise ValueError(f"pointer array length must be a power of two, got {size}")
    w = size.bit_length() - 1
    if not 0 <= v <= w:
        raise ValueError(f"v={v} out of range for array of 2**{w} pointers")
    u = w - v
    sub_len = 1 << u
    habs = 0
    cpa: list[int] = []
    prev: Sequence[int] | None = None
    for m in range(1 << v):
        # Slices of the caller's sequence compare as they are; the CPA
        # becomes a tuple once, at the end.
        sub = pointers[m * sub_len:(m + 1) * sub_len]
        if sub != prev:
            habs |= 1 << m
            cpa += sub
            prev = sub
    return HabsArray(habs=habs, cpa=tuple(cpa), u=u, v=v)


def compression_ratio(arr: HabsArray) -> float:
    """Stored slots / logical slots — Figure 6 is this ratio aggregated
    over every node of a tree (plus headers)."""
    return arr.compressed_slots / arr.total_slots
