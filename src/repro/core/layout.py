"""Packing an ExpCuts tree into its 32-bit SRAM word image (Figure 4).

The paper stores each internal node's 16-bit HABS together with its cutting
information in a single 32-bit long-word, followed by the Compressed
Pointer Array, "effectively loaded by the word-oriented SRAM controller
without any excessive memory accesses".  This module produces exactly that
image as one contiguous ``numpy.uint32`` array per tree level — per-level
segmentation is what lets :mod:`repro.npsim.allocator` distribute levels
across SRAM channels (Table 4 / §5.3).

Word formats
------------
Node header word::

    bits 31..24   level (validation tag)
    bits 23..20   u  (log2 sub-array length)
    bits 19..16   v  (log2 HABS bit count)
    bits 15..0    HABS (LSB = sub-array 0)

Pointer word::

    bit  31       leaf flag
    bits 30..0    leaf:     rule_id + 1  (0 means "no match")
                  internal: word offset of the child node header inside
                            the *next* level's segment

The uncompressed variant (``aggregated=False``) stores the full ``2**w``
pointer array after a header word whose HABS field is zero — it exists so
Figure 6's with/without-aggregation comparison measures real images, not
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .budget import BudgetMeter
from .expcuts import ExpCutsTree, REF_NO_MATCH
from .habs import HabsArray

#: Pointer-word leaf flag.
LEAF_FLAG = np.uint32(0x8000_0000)
#: Leaf pointer meaning "no rule matches".
PTR_NO_MATCH = int(LEAF_FLAG)

WORD_BYTES = 4


def encode_ref(ref: int, offsets: dict[int, int]) -> int:
    """Builder reference -> pointer word (see module docstring)."""
    if ref >= 0:
        return offsets[ref]
    if ref == REF_NO_MATCH:
        return PTR_NO_MATCH
    rule_id = -ref - 2
    return int(LEAF_FLAG) | (rule_id + 1)


def decode_leaf(ptr: int) -> int | None:
    """Pointer word -> rule id (``None`` when no-match); must be a leaf."""
    if not ptr & int(LEAF_FLAG):
        raise ValueError("not a leaf pointer")
    payload = ptr & 0x7FFF_FFFF
    return None if payload == 0 else payload - 1


@dataclass
class TreeImage:
    """The packed per-level word image of one ExpCuts tree."""

    levels: list[np.ndarray]
    root_ptr: int
    stride: int
    aggregated: bool
    tree: ExpCutsTree

    @property
    def total_words(self) -> int:
        return sum(len(seg) for seg in self.levels)

    @property
    def total_bytes(self) -> int:
        return self.total_words * WORD_BYTES

    def level_words(self) -> list[int]:
        """Words per level — the allocator's placement input."""
        return [len(seg) for seg in self.levels]

    def level_bytes(self) -> list[int]:
        return [len(seg) * WORD_BYTES for seg in self.levels]


def pack_tree(tree: ExpCutsTree, aggregated: bool = True,
              meter: BudgetMeter | None = None) -> TreeImage:
    """Pack ``tree`` into per-level word segments.

    With ``aggregated=True`` each node is ``1 + len(CPA)`` words; without,
    ``1 + 2**step.width`` words.  The logical content is identical — the
    round-trip tests decompress both images and compare pointer by
    pointer.

    ``meter`` charges the *exact* emitted words per level against a
    :class:`~repro.core.budget.BuildBudget` — the builder's estimate
    already bounded the aggregated image, but the uncompressed ablation
    image is only sized here.
    """
    nodes = tree.nodes
    cpas = [node.children.cpa for node in nodes]
    cpa_sizes = np.fromiter(map(len, cpas), dtype=np.int64, count=len(nodes))
    if aggregated:
        headers = [
            ((node.level & 0xFF) << 24)
            | ((node.children.u & 0xF) << 20)
            | ((node.children.v & 0xF) << 16)
            | (node.children.habs & 0xFFFF)
            for node in nodes
        ]
        sizes = 1 + cpa_sizes
    else:
        headers = [
            ((node.level & 0xFF) << 24)
            | (((node.children.u + node.children.v) & 0xF) << 20)
            for node in nodes
        ]
        sizes = 1 + np.fromiter((node.children.total_slots for node in nodes),
                                dtype=np.int64, count=len(nodes))
    by_level: list[list[int]] = [[] for _ in tree.schedule]
    for node_id, node in enumerate(nodes):
        by_level[node.level].append(node_id)

    # First pass: each node's word offset inside its level.
    offsets = np.zeros(len(nodes), dtype=np.int64)
    for level_nodes in by_level:
        level_sizes = sizes[level_nodes]
        offsets[level_nodes] = np.cumsum(level_sizes) - level_sizes

    # Second pass: per level, the header words at the node offsets and
    # every pointer word (the CPAs, concatenated in node order) in one
    # vectorised encode between them.  A leaf's payload is -ref - 1:
    # rule_id + 1, and 0 for the no-match leaf.
    header_words = np.array(headers, dtype=np.int64)
    levels: list[np.ndarray] = []
    for level_nodes in by_level:
        total = int(sizes[level_nodes].sum())
        refs = np.fromiter(
            chain.from_iterable(cpas[i] for i in level_nodes),
            dtype=np.int64, count=int(cpa_sizes[level_nodes].sum()))
        if not aggregated and level_nodes:
            refs = _decompress_level(
                refs, [nodes[i].children for i in level_nodes],
                cpa_sizes[level_nodes])
        starts = offsets[level_nodes]
        is_pointer = np.ones(total, dtype=bool)
        is_pointer[starts] = False
        words = np.empty(total, dtype=np.uint32)
        words[starts] = header_words[level_nodes]
        words[is_pointer] = np.where(refs >= 0, offsets[np.maximum(refs, 0)],
                                     int(LEAF_FLAG) | (-refs - 1))
        if meter is not None:
            meter.add_words(total)
        levels.append(words)

    root = tree.root_ref
    root_ptr = int(offsets[root]) if root >= 0 else encode_ref(root, {})
    return TreeImage(
        levels=levels, root_ptr=root_ptr, stride=tree.stride,
        aggregated=aggregated, tree=tree,
    )


def _decompress_level(cpa: np.ndarray, arrays: list[HabsArray],
                      cpa_sizes: np.ndarray) -> np.ndarray:
    """Every full pointer array of one level, concatenated, from the
    level's concatenated CPAs (:meth:`HabsArray.decompress` for all of
    its nodes at once).

    Sub-array ``m`` of a node is its CPA sub-array number ``popcount(
    habs & (2 << m) - 1) - 1``.  A level fixes the cut width and the
    HABS size, so all of its nodes share ``u`` and ``v``.
    """
    (u, v), = {(arr.u, arr.v) for arr in arrays}
    habs = np.array([arr.habs for arr in arrays], dtype=np.int64)
    sub = np.cumsum(habs[:, None] >> np.arange(1 << v) & 1, axis=1) - 1
    base = np.cumsum(cpa_sizes) - cpa_sizes
    index = (base[:, None, None] + (sub << u)[:, :, None]
             + np.arange(1 << u))
    return cpa[index.ravel()]


def compression_summary(tree: ExpCutsTree) -> dict[str, float]:
    """Aggregate with/without-aggregation sizes (Figure 6's two bars)."""
    with_agg = pack_tree(tree, aggregated=True)
    without = pack_tree(tree, aggregated=False)
    return {
        "bytes_with_aggregation": float(with_agg.total_bytes),
        "bytes_without_aggregation": float(without.total_bytes),
        "ratio": with_agg.total_bytes / max(without.total_bytes, 1),
        "nodes": float(tree.node_count()),
    }
