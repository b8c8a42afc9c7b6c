"""Lookup engines over the packed ExpCuts word image.

Three access paths, all provably equivalent (tests cross-check them and
the tree-IR walk against the linear-search oracle):

* :meth:`ExpCutsEngine.classify_many` (and ``classify``, its one-header
  case) — the scalar walk a microengine thread performs: read the node
  header word, one ``POP_COUNT``, read one pointer word, descend.  In
  software it runs over a derived *bypass image* (:func:`bypass_image`)
  that skips nodes whose every slot leads to the same child, entered
  through a derived :func:`root_table` over the leading 16 key bits, so
  it reads fewer nodes than the modelled walk charges.
* :meth:`ExpCutsEngine.classify_batch` — NumPy level-synchronous traversal
  of whole packet arrays (flat contiguous ``uint32`` gathers, no per-packet
  Python), per the HPC guide idioms.
* :meth:`ExpCutsEngine.access_trace` — the scalar walk instrumented to
  emit the exact memory-reference/compute sequence, which
  :mod:`repro.npsim` replays on simulated hardware threads; given a
  decision trace, the same walk records the path the tests assert on.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

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


#: Pointer words resolved per NumPy call while deriving the bypass image,
#: which bounds the derivation's per-level temporaries.
_CHUNK = 1 << 15


def _node_words(seg: np.ndarray, nodes: np.ndarray,
                aggregated: bool) -> tuple[np.ndarray, np.ndarray]:
    """Locate the pointer words of the nodes at ``nodes`` (ascending).

    Returns a mask over ``seg`` of those words, which skips headers and
    any unreachable (garbage) node between them, and each node's pointer
    count.
    """
    hw = seg[nodes]
    u = (hw >> np.uint32(20)) & np.uint32(0xF)
    subs = popcount_u16(hw) if aggregated else np.ones(len(nodes), np.int64)
    counts = subs << u
    mark = np.zeros(len(seg) + 1, dtype=np.int8)
    mark[nodes] = 1
    mark[nodes + 1 + counts] -= 1
    inside = np.cumsum(mark[:-1], dtype=np.int8).astype(bool)
    inside[nodes] = False
    return inside, counts


def _reached(seg: np.ndarray, inside: np.ndarray, size: int) -> np.ndarray:
    """Ascending offsets, in the ``size``-word level below, of the nodes
    that the pointer words ``seg[inside]`` point at."""
    reached = np.zeros(size, dtype=bool)
    for lo in range(0, len(seg), _CHUNK):
        ptrs = seg[lo:lo + _CHUNK][inside[lo:lo + _CHUNK]]
        reached[ptrs[ptrs < LEAF_FLAG]] = True
    return np.flatnonzero(reached)


def _resolve(ptrs: np.ndarray, resolved: np.ndarray) -> None:
    """Rewrite the internal pointers in ``ptrs`` through ``resolved``."""
    for lo in range(0, len(ptrs), _CHUNK):
        chunk = ptrs[lo:lo + _CHUNK]
        inner = chunk < LEAF_FLAG
        chunk[inner] = resolved[chunk[inner]]


def _compact(ptrs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``ptrs[keep]``, packed into the front of ``ptrs`` without a copy."""
    kept = 0
    for lo in range(0, len(ptrs), _CHUNK):
        part = ptrs[lo:lo + _CHUNK][keep[lo:lo + _CHUNK]]
        ptrs[kept:kept + len(part)] = part
        kept += len(part)
    return ptrs[:kept]


def bypass_image(image: TreeImage) -> tuple[np.ndarray, int]:
    """Derive the scalar walk's flat image: ``(words, root_ptr)``.

    A *one-child* node is one whose every pointer is the same word — one
    HABS bit set and every CPA entry equal.  Reading it decides nothing,
    so the bypass image keeps every other reachable node, in the packed
    word format, and points each pointer at the node or leaf its chain of
    one-child nodes ends at.  Pointers are offsets into the one flat
    array; the level tag (bits 31..24) tells the walk which key to cut.
    An unaggregated node is re-encoded as one HABS bit with ``u = w``, so
    both image variants share one walk.

    This is derived state for the software walk only: the traced walk,
    the batch walk and :mod:`repro.npsim` read the real per-level image,
    which still charges every level.  Besides the output, the derivation
    holds at most one level's pointers and one dense ``uint32`` offset map
    at a time; everything else is byte masks, per-node arrays or chunks
    of :data:`_CHUNK` words.
    """
    levels, root = image.levels, image.root_ptr
    if root & _LEAF:
        return np.zeros(0, dtype=np.uint32), root
    # Top-down: the reachable node offsets of each level.
    starts = [np.array([root], dtype=np.int64)]
    for seg, below in zip(levels, levels[1:]):
        inside, _ = _node_words(seg, starts[-1], image.aggregated)
        starts.append(_reached(seg, inside, len(below)))
    # Bottom-up: resolve each level's pointers through the level below,
    # then lay out its branching nodes after those already placed.  A
    # kept node keeps its size, so the real image bounds the output.
    words = np.empty(image.total_words, dtype=np.uint32)
    placed = 0
    resolved = np.zeros(0, dtype=np.uint32)  # level offset -> new pointer
    for seg, nodes in zip(reversed(levels), reversed(starts)):
        if not len(nodes):
            resolved = np.zeros(0, dtype=np.uint32)
            continue
        inside, counts = _node_words(seg, nodes, image.aggregated)
        ptrs = seg[inside]
        del inside
        _resolve(ptrs, resolved)
        del resolved
        first = np.cumsum(counts) - counts
        lowest = np.minimum.reduceat(ptrs, first)
        branching = lowest != np.maximum.reduceat(ptrs, first)
        sizes = 1 + counts[branching]
        at = np.cumsum(sizes) - sizes
        is_header = np.zeros(int(sizes.sum()), dtype=bool)
        is_header[at] = True
        headers = seg[nodes[branching]]
        if not image.aggregated:
            headers = (headers & np.uint32(0xFFF0_0000)) | np.uint32(1)
        end = placed + len(is_header)
        words[placed:end][is_header] = headers
        words[placed:end][~is_header] = _compact(
            ptrs, np.repeat(branching, counts))
        del ptrs
        resolved = np.zeros(len(seg), dtype=np.uint32)
        resolved[nodes] = lowest
        resolved[nodes[branching]] = placed + at
        placed = end
    # Shrink in place rather than copy the kept words.  No view of
    # ``words`` outlives its statement above, so skipping numpy's
    # reference check (which a tracer's frame snapshot would trip) is safe.
    words.resize(placed, refcheck=False)
    return words, int(resolved[root])


class _Bypass:
    """A derived bypass image: its words as a zero-copy ``memoryview``
    (a read yields a plain ``int`` without boxing a numpy scalar), its
    root pointer and the digest of the packed image it came from."""

    __slots__ = ("words", "root", "digest", "__weakref__")

    def __init__(self, words: np.ndarray, root: int, digest: bytes) -> None:
        self.words = memoryview(words).cast("B").cast("I")
        self.root = root
        self.digest = digest


#: Widest key, in bits, that indexes a root table (64K entries).
ROOT_TABLE_BITS = 16


def root_cut(keys: Sequence[tuple[int, int, int]]) -> tuple[int, int, int, int]:
    """The leading levels a root table resolves: ``(levels, field, shift,
    mask)``.

    ``keys`` holds one ``(field, shift, mask)`` per schedule level.  The
    table covers the longest run of leading levels that cut adjacent bits
    of one field, MSB first, and together take at most
    :data:`ROOT_TABLE_BITS`; one key ``(header[field] >> shift) & mask``
    then names all of their keys at once.  Every schedule that
    :func:`~repro.core.fields.cut_schedule` makes starts inside the 32-bit
    source address, so the table covers 16 bits (two levels at stride 8,
    one at stride 12 or 16).
    """
    levels = width = 0
    field = shift = 0
    for level_field, level_shift, level_mask in keys:
        bits = level_mask.bit_length()
        if width + bits > ROOT_TABLE_BITS or (
                levels and (level_field != field
                            or level_shift + bits != shift)):
            break
        field, shift = level_field, level_shift
        levels, width = levels + 1, width + bits
    return levels, field, shift, (1 << width) - 1


def root_table(words: np.ndarray, root: int,
               keys: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """Where the bypass walk stands after the leading levels ``keys``
    (those :func:`root_cut` picks), for every value of their joint key.

    Entry ``k`` is the pointer the scalar walk from ``root`` reaches for
    a header whose key is ``k`` once it meets a leaf or a node tagged
    past those levels.  The table grows one level at a time: each
    entry splits into one per key of the next level, and the entries
    that stand on a node of that level take one step.  A step that would
    read outside ``words`` (a corrupted image) is not taken, so the
    per-header walk that goes on from the entry meets the same fault.
    """
    table = np.array([root], dtype=np.uint32)
    size = len(words)
    for level, (_, _, mask) in enumerate(keys):
        table = np.repeat(table, mask + 1)
        at = np.flatnonzero(table < LEAF_FLAG)
        ptr = table[at].astype(np.int64)
        inside = ptr < size
        at, ptr = at[inside], ptr[inside]
        hw = words[ptr]
        ours = (hw >> np.uint32(24)) == level
        at, ptr, hw = at[ours], ptr[ours], hw[ours]
        key = at & mask  # this level's key: the entry's lowest bits
        u = ((hw >> np.uint32(20)) & np.uint32(0xF)).astype(np.int64)
        below = (np.int64(2) << np.minimum(key >> u, 16)) - 1
        pop = popcount_u16(hw & below.astype(np.uint32))
        addr = ptr + ((pop - 1) << u) + (key & ((np.int64(1) << u) - 1)) + 1
        inside = (addr >= 0) & (addr < size)
        table[at[inside]] = words[addr[inside]]
    return table


class _Walk:
    """The scalar walk's entry state for one bypass image and schedule:
    the bypass words, the :func:`root_table` as a zero-copy
    ``memoryview``, and the key that indexes it."""

    __slots__ = ("words", "table", "levels", "field", "shift", "mask",
                 "__weakref__")

    def __init__(self, bypass: _Bypass,
                 keys: Sequence[tuple[int, int, int]]) -> None:
        self.words = bypass.words
        self.levels, self.field, self.shift, self.mask = root_cut(keys)
        table = root_table(np.asarray(bypass.words), bypass.root,
                           keys[:self.levels])
        self.table = memoryview(table).cast("B").cast("I")


#: Bypass images by a digest of the packed image they were derived from,
#: so engines over equal images (a service's primary and standby, a shard
#: base rebuilt from the same rules) share one copy.  An entry lives as
#: long as some engine holds it.
_SHARED_BYPASS: weakref.WeakValueDictionary[bytes, _Bypass] = (
    weakref.WeakValueDictionary())
#: Root tables by image digest and the keys of the levels they resolve,
#: shared and released the same way.
_SHARED_WALK: weakref.WeakValueDictionary[tuple, _Walk] = (
    weakref.WeakValueDictionary())


def _image_digest(image: TreeImage) -> bytes:
    """SHA-256 of a packed image's layout and words."""
    digest = hashlib.sha256(repr(
        (image.root_ptr, image.aggregated, image.level_words())).encode())
    for seg in image.levels:
        digest.update(np.ascontiguousarray(seg, dtype=np.uint32))
    return digest.digest()


class ExpCutsEngine:
    """Classify packets against a packed :class:`TreeImage`.

    The scalar walk runs off three pieces of derived state, none of them
    pickled (the payload stays exactly ``image``, ``schedule`` and
    ``use_pop_count``):

    * ``_bypass`` — the :func:`bypass_image`, derived on the first scalar
      lookup, shared with every engine over an equal image, and dropped
      when ``image`` is assigned.  An engine read only by the batch walk,
      the traced walks or npsim never holds one.
    * ``_walk`` — the bypass words plus the :func:`root_table` over the
      leading levels of ``schedule`` (64K ``uint32`` entries, 256 KB),
      derived and shared alongside ``_bypass`` and dropped when either
      ``image`` or ``schedule`` is assigned.
    * ``_keys`` — one ``(field, shift, mask)`` per level of ``schedule``,
      rebuilt when ``schedule`` is assigned.
    """

    schedule: list[CutStep]

    def __init__(self, image: TreeImage, use_pop_count: bool = True) -> None:
        self.image = image
        self.schedule = image.tree.schedule
        self.use_pop_count = use_pop_count

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "image":
            self.__dict__.pop("_bypass", None)
            self.__dict__.pop("_walk", None)
        elif name == "schedule":
            self.__dict__.pop("_walk", None)
            object.__setattr__(self, "_keys", tuple(
                (int(step.field), step.shift, (1 << step.width) - 1)
                for step in value))

    def __getattr__(self, name: str):
        # Reached only while ``_bypass`` or ``_walk`` is not derived yet.
        if name == "_bypass":
            key = _image_digest(self.image)
            derived = _SHARED_BYPASS.get(key)
            if derived is None:
                derived = _SHARED_BYPASS[key] = _Bypass(
                    *bypass_image(self.image), key)
        elif name == "_walk":
            bypass = self._bypass
            levels = root_cut(self._keys)[0]
            key = (bypass.digest, self._keys[:levels])
            derived = _SHARED_WALK.get(key)
            if derived is None:
                derived = _SHARED_WALK[key] = _Walk(bypass, self._keys)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, derived)
        return derived

    def __getstate__(self) -> dict:
        return {name: self.__dict__[name]
                for name in ("image", "schedule", "use_pop_count")}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    # -- scalar ---------------------------------------------------------

    def classify(self, header: Sequence[int]) -> int | None:
        """Return the matched rule id (or ``None``) for one header."""
        return self.classify_many((header,))[0]

    def classify_many(self, headers: Iterable[Sequence[int]]
                      ) -> list[int | None]:
        """Matched rule ids (``None`` for no match), one per header.

        Each walk enters through the root table, one read for the leading
        levels, then per node of the bypass image: read the header word,
        cut the key its level tag names, count the HABS bits below the
        key's sub-array (one ``POP_COUNT``), read the pointer word.  A
        walk reads at most ``len(schedule)`` nodes, the table's levels
        included.  ``use_pop_count`` only changes the modelled cycle
        cost, so both settings take this walk.
        """
        walk = self._walk
        words, table = walk.words, walk.table
        field, shift, mask = walk.field, walk.shift, walk.mask
        keys = self._keys
        rest = keys[walk.levels:]
        answers: list[int | None] = []
        append = answers.append
        for header in headers:
            ptr = table[(header[field] >> shift) & mask]
            if not ptr & _LEAF:
                for _ in rest:
                    hw = words[ptr]
                    try:
                        f, s, m = keys[hw >> 24]
                    except IndexError:
                        break  # a node tagged deeper than the schedule reaches
                    key = (header[f] >> s) & m
                    u = (hw >> 20) & 0xF
                    pop = (hw & 0xFFFF & ((2 << (key >> u)) - 1)).bit_count()
                    ptr = words[ptr + ((pop - 1) << u)
                                + (key & ((1 << u) - 1)) + 1]
                    if ptr & _LEAF:
                        break
                if not ptr & _LEAF:
                    # Watchdog: only a corrupted image gets here — the
                    # packed tree is at most ``len(schedule)`` levels deep.
                    raise DepthBoundExceededError(
                        f"lookup descended past the {len(keys)}-level bound")
            payload = ptr & 0x7FFF_FFFF
            append(payload - 1 if payload else None)
        return answers

    # -- instrumented ----------------------------------------------------

    def access_trace(self, header: Sequence[int],
                     trace=None) -> LookupTrace:
        """The scalar walk, recording every SRAM reference.

        Each level costs two single-word reads — the header word, then
        (after the POP_COUNT/address computation) the pointer word — which
        is how the word-oriented IXP SRAM controller consumes Figure 4's
        data structure.

        With ``trace`` (a :class:`repro.obs.trace.DecisionTrace`) the
        same walk also records its decision path: one ``node`` step per
        level carrying the cut field, stride, extracted key, the HABS
        word and its POP_COUNT result, and the slot the CPA arithmetic
        selected — the data behind the paper's "one POP_COUNT instead of
        ~100 RISC operations" claim, made assertable per lookup — then
        the ``leaf``.
        """
        if trace is not None:
            trace.begin("expcuts", header)
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
                    pop = popcount(habs & mask)
                    cycles += POP_COUNT_CYCLES
                else:
                    pop, risc = popcount_risc_model(habs & mask)
                    cycles += risc
                slot = ((pop - 1) << u) + j
            else:
                slot = key
            cycles += ADDRESS_ARITH_CYCLES
            reads.append(MemRead(f"level:{level}", addr + 1 + slot, 1, cycles))
            if trace is not None:
                detail: dict = {"field": step.field, "stride": step.width,
                                "key": key}
                if self.image.aggregated:
                    detail["habs"] = habs
                    detail["popcount"] = pop
                detail["slot"] = slot
                trace.node(f"level:{level}", addr, words=2, **detail)
            ptr = int(seg[addr + 1 + slot])
            pending = KEY_EXTRACT_CYCLES
            level += 1
        result = decode_leaf(ptr)
        if trace is not None:
            trace.leaf(f"level:{level - 1}" if level else "root",
                       int(ptr) & 0x7FFF_FFFF, rule=result)
            trace.finish(result)
        return LookupTrace(tuple(reads), compute_after=2, result=result)

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
