"""Lookup engines over the packed ExpCuts word image.

Three access paths, all provably equivalent (tests cross-check them and
the tree-IR walk against the linear-search oracle):

* :meth:`ExpCutsEngine.classify` — the scalar walk a microengine thread
  performs: read the node header word, one ``POP_COUNT``, read one pointer
  word, descend.
* :meth:`ExpCutsEngine.classify_batch` — NumPy level-synchronous traversal
  of whole packet arrays (flat contiguous ``uint32`` gathers, no per-packet
  Python), per the HPC guide idioms.
* :meth:`ExpCutsEngine.access_trace` — the scalar walk instrumented to
  emit the exact memory-reference/compute sequence, which
  :mod:`repro.npsim` replays on simulated hardware threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DepthBoundExceededError
from .fields import CutStep
from .layout import LEAF_FLAG, TreeImage, decode_leaf
from .popcount import (
    POP_COUNT_CYCLES,
    popcount,
    popcount_risc_model,
    popcount_u16,
)

#: Cycles for extracting the level key from header registers (shift+mask).
KEY_EXTRACT_CYCLES = 2
#: Cycles for CPA address arithmetic (shift, add, add).
ADDRESS_ARITH_CYCLES = 3

_LEAF = int(LEAF_FLAG)


@dataclass(frozen=True)
class MemRead:
    """One SRAM read in a lookup trace.

    ``region`` names the logical memory segment (here ``level:<n>``);
    the NP allocator maps regions to physical channels.  ``compute_before``
    is the number of ME cycles spent between the previous read's data
    arrival and this command issue.
    """

    region: str
    addr: int
    nwords: int
    compute_before: int


@dataclass
class LookupTrace:
    """The full memory/compute footprint of classifying one header."""

    reads: tuple[MemRead, ...]
    compute_after: int
    result: int | None

    @property
    def total_words(self) -> int:
        return sum(r.nwords for r in self.reads)

    @property
    def total_accesses(self) -> int:
        return len(self.reads)

    @property
    def total_compute(self) -> int:
        return sum(r.compute_before for r in self.reads) + self.compute_after


class ExpCutsEngine:
    """Classify packets against a packed :class:`TreeImage`.

    The scalar walk runs off a per-level *plan*: one
    ``(words, field, shift, mask)`` tuple per level, where ``words`` is a
    zero-copy ``memoryview`` over that level's ``uint32`` segment, so a
    read yields a plain ``int`` without boxing a numpy scalar.  The plan is
    derived state: it is rebuilt whenever ``image`` or ``schedule`` is
    assigned, and it is never pickled (memoryviews cannot be, and the
    payload stays exactly ``image``, ``schedule`` and ``use_pop_count``).
    """

    schedule: list[CutStep]

    def __init__(self, image: TreeImage, use_pop_count: bool = True) -> None:
        self.image = image
        self.schedule = image.tree.schedule
        self.use_pop_count = use_pop_count

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in ("image", "schedule") and hasattr(self, "schedule"):
            object.__setattr__(self, "_plan", self._build_plan())

    def __getstate__(self) -> dict:
        return {name: self.__dict__[name]
                for name in ("image", "schedule", "use_pop_count")}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def _build_plan(self) -> tuple[tuple[memoryview, int, int, int], ...]:
        """One ``(words, field, shift, mask)`` per level of the schedule."""
        return tuple(
            (memoryview(seg).cast("B").cast("I"),
             int(step.field), step.shift, (1 << step.width) - 1)
            for seg, step in zip(self.image.levels, self.schedule)
        )

    # -- scalar ---------------------------------------------------------

    def classify(self, header: Sequence[int]) -> int | None:
        """Return the matched rule id (or ``None``) for one header.

        Per level: read the node header word, count the HABS bits below
        the key's sub-array (one ``POP_COUNT``), read the pointer word.
        ``use_pop_count`` only changes the modelled cycle cost, so both
        settings take this walk.
        """
        ptr = self.image.root_ptr
        if ptr & _LEAF:
            return decode_leaf(ptr)
        if self.image.aggregated:
            for words, field, shift, mask in self._plan:
                hw = words[ptr]
                key = (header[field] >> shift) & mask
                u = (hw >> 20) & 0xF
                pop = (hw & 0xFFFF & ((2 << (key >> u)) - 1)).bit_count()
                ptr = words[ptr + ((pop - 1) << u) + (key & ((1 << u) - 1)) + 1]
                if ptr & _LEAF:
                    return decode_leaf(ptr)
        else:
            for words, field, shift, mask in self._plan:
                ptr = words[ptr + 1 + ((header[field] >> shift) & mask)]
                if ptr & _LEAF:
                    return decode_leaf(ptr)
        # Watchdog: only a corrupted image can get here — the packed tree
        # is at most ``len(schedule)`` levels deep.
        raise DepthBoundExceededError(
            f"lookup descended past the {len(self.schedule)}-level bound"
        )

    # -- instrumented ----------------------------------------------------

    def access_trace(self, header: Sequence[int]) -> LookupTrace:
        """The scalar walk, recording every SRAM reference.

        Each level costs two single-word reads — the header word, then
        (after the POP_COUNT/address computation) the pointer word — which
        is how the word-oriented IXP SRAM controller consumes Figure 4's
        data structure.
        """
        reads: list[MemRead] = []
        ptr = self.image.root_ptr
        level = 0
        bound = len(self.schedule)
        pending = KEY_EXTRACT_CYCLES  # root pointer is a register, not a read
        while not ptr & int(LEAF_FLAG):
            if level >= bound:
                raise DepthBoundExceededError(
                    f"lookup descended past the {bound}-level bound"
                )
            seg = self.image.levels[level]
            addr = ptr
            reads.append(MemRead(f"level:{level}", addr, 1, pending))
            hw = int(seg[addr])
            step = self.schedule[level]
            key = (header[step.field] >> step.shift) & ((1 << step.width) - 1)
            cycles = KEY_EXTRACT_CYCLES
            if self.image.aggregated:
                habs = hw & 0xFFFF
                u = (hw >> 20) & 0xF
                m = key >> u
                j = key & ((1 << u) - 1)
                mask = (1 << (m + 1)) - 1
                if self.use_pop_count:
                    i = popcount(habs & mask) - 1
                    cycles += POP_COUNT_CYCLES
                else:
                    i, risc = popcount_risc_model(habs & mask)
                    i -= 1
                    cycles += risc
                slot = (i << u) + j
            else:
                slot = key
            cycles += ADDRESS_ARITH_CYCLES
            reads.append(MemRead(f"level:{level}", addr + 1 + slot, 1, cycles))
            ptr = int(seg[addr + 1 + slot])
            pending = KEY_EXTRACT_CYCLES
            level += 1
        return LookupTrace(tuple(reads), compute_after=2, result=decode_leaf(ptr))

    def classify_traced(self, header: Sequence[int], trace) -> int | None:
        """The scalar walk, recording the decision path.

        ``trace`` is a :class:`repro.obs.trace.DecisionTrace`.  Each
        level records one ``node`` step carrying the cut field, stride,
        extracted key, the HABS word and its POP_COUNT result, and the
        slot the CPA arithmetic selected — the data behind the paper's
        "one POP_COUNT instead of ~100 RISC operations" claim, made
        assertable per lookup.
        """
        trace.begin("expcuts", header)
        ptr = self.image.root_ptr
        level = 0
        bound = len(self.schedule)
        while not ptr & int(LEAF_FLAG):
            if level >= bound:
                raise DepthBoundExceededError(
                    f"lookup descended past the {bound}-level bound"
                )
            seg = self.image.levels[level]
            addr = ptr
            hw = int(seg[addr])
            step = self.schedule[level]
            key = (header[step.field] >> step.shift) & ((1 << step.width) - 1)
            detail: dict = {"field": step.field, "stride": step.width, "key": key}
            if self.image.aggregated:
                habs = hw & 0xFFFF
                u = (hw >> 20) & 0xF
                m = key >> u
                j = key & ((1 << u) - 1)
                mask = (1 << (m + 1)) - 1
                pop = popcount(habs & mask)
                slot = ((pop - 1) << u) + j
                detail["habs"] = habs
                detail["popcount"] = pop
            else:
                slot = key
            detail["slot"] = slot
            # Two single-word reads per level: node header, then pointer.
            trace.node(f"level:{level}", addr, words=2, **detail)
            ptr = int(seg[addr + 1 + slot])
            level += 1
        result = decode_leaf(ptr)
        trace.leaf(f"level:{level - 1}" if level else "root", int(ptr) & 0x7FFF_FFFF,
                   rule=result)
        return trace.finish(result)

    # -- vectorized ------------------------------------------------------

    def classify_batch(self, fields: Sequence[np.ndarray]) -> np.ndarray:
        """Classify many headers at once (level-synchronous traversal).

        ``fields`` holds five equal-length integer arrays (sip, dip,
        sport, dport, proto).  Returns an ``int64`` array of rule ids with
        ``-1`` for no-match.
        """
        n = len(fields[0])
        results = np.full(n, -1, dtype=np.int64)
        field_arrays = [np.ascontiguousarray(f, dtype=np.uint32) for f in fields]

        ptr = np.full(n, self.image.root_ptr, dtype=np.uint32)
        active = np.arange(n, dtype=np.int64)

        leaf_now = (ptr & LEAF_FLAG).astype(bool)
        self._settle(results, active, ptr, leaf_now)
        active = active[~leaf_now]
        ptr = ptr[~leaf_now]

        for level, step in enumerate(self.schedule):
            if active.size == 0:
                break
            seg = self.image.levels[level]
            addr = ptr.astype(np.int64)
            hw = seg[addr]
            key = (
                (field_arrays[step.field][active] >> np.uint32(step.shift))
                & np.uint32((1 << step.width) - 1)
            ).astype(np.int64)
            if self.image.aggregated:
                habs = (hw & np.uint32(0xFFFF)).astype(np.int64)
                u = ((hw >> np.uint32(20)) & np.uint32(0xF)).astype(np.int64)
                m = key >> u
                j = key & ((np.int64(1) << u) - 1)
                mask = (np.int64(1) << (m + 1)) - 1
                i = popcount_u16(habs & mask) - 1
                slot = (i << u) + j
            else:
                slot = key
            ptr = seg[addr + 1 + slot]
            leaf_now = (ptr & LEAF_FLAG).astype(bool)
            self._settle(results, active, ptr, leaf_now)
            active = active[~leaf_now]
            ptr = ptr[~leaf_now]
        if active.size:
            raise DepthBoundExceededError("traversal exceeded the explicit depth bound")
        return results

    @staticmethod
    def _settle(results: np.ndarray, active: np.ndarray, ptr: np.ndarray,
                leaf_now: np.ndarray) -> None:
        """Write out rule ids for packets that just reached a leaf."""
        if not leaf_now.any():
            return
        done = active[leaf_now]
        payload = (ptr[leaf_now] & np.uint32(0x7FFF_FFFF)).astype(np.int64)
        results[done] = payload - 1  # payload 0 (no match) becomes -1
