"""Population count, with the IXP2850 cost model attached.

Section 5.4 of the paper: summing a Hierarchical Aggregation Bit String
with plain RISC instructions costs ~100 cycles per lookup step, while the
IXP2850's hardware ``POP_COUNT`` counts the set bits of a 32-bit word in
3 cycles (>90 % reduction).  The simulator charges whichever cost model
the experiment selects; the *functional* result is identical either way,
which the tests assert.
"""

from __future__ import annotations

import numpy as np

#: Cycles charged for one hardware POP_COUNT (IXP2850 PRM figure).
POP_COUNT_CYCLES = 3

#: Cycles charged for a software bit-count loop over a 16-bit HABS using
#: ADD/SHIFT/AND/BRANCH only (paper: "more than 100 RISC instructions").
RISC_LOOP_CYCLES = 100


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers")
    return value.bit_count()


def popcount_risc_model(value: int, width: int = 16) -> tuple[int, int]:
    """Software bit-count, returning ``(count, cycles)``.

    Models the shift-and-add loop an IXP microengine runs without the
    hardware instruction: microcode has no data-dependent early exit
    worth its branch penalty, so the loop walks all ``width`` bit
    positions of the HABS register at one ADD+SHIFT+AND+BRANCH bundle
    (~6 cycles) apiece — "more than 100 RISC instructions" for the
    16-bit HABS (paper §5.4), which is exactly the cost the hardware
    ``POP_COUNT`` removes.
    """
    count = 0
    v = value
    while v:
        count += v & 1
        v >>= 1
    iterations = max(width, value.bit_length())
    return count, max(6 * iterations + 4, 10)


#: 16-bit popcount lookup table for the vectorized path (HABS is 16 bits).
_POPCOUNT16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def popcount_u32(values: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a ``uint32`` array (table-driven)."""
    values = np.ascontiguousarray(values, dtype=np.uint32)
    return (
        _POPCOUNT16[values & np.uint32(0xFFFF)].astype(np.int64)
        + _POPCOUNT16[values >> np.uint32(16)]
    )


def popcount_u16(values: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a ``uint16``-ranged array."""
    return _POPCOUNT16[np.asarray(values, dtype=np.uint32) & np.uint32(0xFFFF)].astype(np.int64)
