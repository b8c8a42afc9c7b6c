"""Word-image packing tests (Figure 4 encoding)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expcuts import (
    ExpCutsConfig,
    REF_NO_MATCH,
    build_expcuts,
    flat_projection,
    insert_into_tree,
    leaf_ref,
)
from repro.core.layout import (
    LEAF_FLAG,
    PTR_NO_MATCH,
    TreeImage,
    compression_summary,
    decode_leaf,
    encode_ref,
    pack_tree,
)
from repro.rulesets import generate
from repro.rulesets.profiles import PROFILES

from ..conftest import ruleset_strategy


class TestPointerEncoding:
    def test_leaf_roundtrip(self):
        for rid in (0, 5, 1000):
            ptr = encode_ref(leaf_ref(rid), {})
            assert ptr & int(LEAF_FLAG)
            assert decode_leaf(ptr) == rid

    def test_no_match(self):
        ptr = encode_ref(REF_NO_MATCH, {})
        assert ptr == PTR_NO_MATCH
        assert decode_leaf(ptr) is None

    def test_internal_uses_offsets(self):
        assert encode_ref(7, {7: 42}) == 42

    def test_decode_internal_rejected(self):
        with pytest.raises(ValueError):
            decode_leaf(42)


class TestPackTree:
    def test_word_types(self, tiny_ruleset):
        image = pack_tree(build_expcuts(tiny_ruleset))
        for seg in image.levels:
            assert seg.dtype == np.uint32

    def test_level_count_matches_schedule(self, tiny_ruleset):
        tree = build_expcuts(tiny_ruleset)
        image = pack_tree(tree)
        assert len(image.levels) == len(tree.schedule) == 13

    def test_header_word_fields(self, tiny_ruleset):
        tree = build_expcuts(tiny_ruleset)
        image = pack_tree(tree)
        # Root node header must carry its level tag and v/u split.
        root = tree.nodes[tree.root_ref]
        hw = int(image.levels[root.level][image.root_ptr])
        assert (hw >> 24) & 0xFF == root.level
        assert (hw >> 16) & 0xF == root.children.v
        assert (hw >> 20) & 0xF == root.children.u
        assert hw & 0xFFFF == root.children.habs

    def test_aggregated_is_smaller(self, small_fw_ruleset):
        tree = build_expcuts(small_fw_ruleset)
        packed = pack_tree(tree, aggregated=True)
        full = pack_tree(tree, aggregated=False)
        assert packed.total_words < full.total_words
        assert packed.total_bytes == packed.total_words * 4

    def test_unaggregated_node_size_is_full_fanout(self, tiny_ruleset):
        tree = build_expcuts(tiny_ruleset)
        full = pack_tree(tree, aggregated=False)
        expected = sum(
            1 + node.children.total_slots for node in tree.nodes
        )
        assert full.total_words == expected

    def test_level_words_sum(self, tiny_ruleset):
        image = pack_tree(build_expcuts(tiny_ruleset))
        assert sum(image.level_words()) == image.total_words
        assert image.level_bytes() == [w * 4 for w in image.level_words()]

    def test_compression_summary(self, small_fw_ruleset):
        tree = build_expcuts(small_fw_ruleset)
        summary = compression_summary(tree)
        assert 0 < summary["ratio"] < 1
        assert summary["nodes"] == tree.node_count()


@given(ruleset_strategy(max_rules=6))
@settings(max_examples=25, deadline=None)
def test_both_layouts_encode_identical_pointers(ruleset):
    """Decompressing the aggregated image must equal the full image,
    node by node, pointer by pointer (offsets differ; leaves must not)."""
    tree = build_expcuts(ruleset)
    packed = pack_tree(tree, aggregated=True)
    full = pack_tree(tree, aggregated=False)

    def walk(image: TreeImage, addr_ptr: int, level: int, key_path: tuple) -> object:
        """Resolve a key path through an image to its leaf payload."""
        ptr = addr_ptr
        for key in key_path:
            seg = image.levels[level]
            hw = int(seg[ptr])
            if image.aggregated:
                u = (hw >> 20) & 0xF
                habs = hw & 0xFFFF
                m = key >> u
                i = bin(habs & ((1 << (m + 1)) - 1)).count("1") - 1
                slot = (i << u) + (key & ((1 << u) - 1))
            else:
                slot = key
            ptr = int(seg[ptr + 1 + slot])
            level += 1
            if ptr & int(LEAF_FLAG):
                return decode_leaf(ptr)
        return decode_leaf(ptr) if ptr & int(LEAF_FLAG) else ("internal", ptr)

    if tree.root_ref < 0:
        assert packed.root_ptr == full.root_ptr
        return
    # Probe a deterministic set of key paths (all-zeros, all-max, stripes).
    for path_value in (0, (1 << tree.stride) - 1, 0x55 & ((1 << tree.stride) - 1)):
        path = tuple(path_value for _ in tree.schedule)
        a = walk(packed, packed.root_ptr, 0, path)
        b = walk(full, full.root_ptr, 0, path)
        # Both must resolve to the same leaf rule (internal markers carry
        # different offsets, so only compare when leaves were reached).
        if not isinstance(a, tuple) and not isinstance(b, tuple):
            assert a == b


def _loop_pack(tree, aggregated):
    """Reference packer: the node-by-node loop ``pack_tree`` vectorises.
    Returns ``(levels as lists of words, root_ptr)``."""
    by_level = [[] for _ in tree.schedule]
    for node_id, node in enumerate(tree.nodes):
        by_level[node.level].append(node_id)
    offsets = {}
    for level_nodes in by_level:
        cursor = 0
        for node_id in level_nodes:
            offsets[node_id] = cursor
            ch = tree.nodes[node_id].children
            cursor += 1 + (ch.compressed_slots if aggregated
                           else ch.total_slots)
    levels = []
    for level_nodes in by_level:
        words = []
        for node_id in level_nodes:
            node = tree.nodes[node_id]
            ch = node.children
            if aggregated:
                words.append((node.level << 24) | (ch.u << 20) | (ch.v << 16)
                             | ch.habs)
                words.extend(encode_ref(ref, offsets) for ref in ch.cpa)
            else:
                words.append((node.level << 24) | ((ch.u + ch.v) << 20))
                words.extend(encode_ref(ref, offsets)
                             for ref in ch.decompress())
        levels.append(words)
    return levels, encode_ref(tree.root_ref, offsets)


@given(ruleset_strategy(max_rules=8), st.sampled_from([4, 8]))
@settings(max_examples=30, deadline=None)
def test_pack_matches_the_node_loop(ruleset, stride):
    """The vectorised packer emits exactly the reference loop's words,
    also for a tree carrying copy-on-write garbage nodes."""
    tree = build_expcuts(ruleset, ExpCutsConfig(stride=stride))
    trees = [tree]
    if len(ruleset):
        # A copy of rule 0 under a new id, outranking every rule.
        edited = copy.deepcopy(tree)
        rule = (len(ruleset),) + flat_projection(ruleset)[0][1:]
        insert_into_tree(edited, rule, lambda existing: True)
        trees.append(edited)
    for candidate in trees:
        for aggregated in (True, False):
            image = pack_tree(candidate, aggregated=aggregated)
            levels, root_ptr = _loop_pack(candidate, aggregated)
            assert [seg.tolist() for seg in image.levels] == levels
            assert image.root_ptr == root_ptr
            assert type(image.root_ptr) is int


@pytest.mark.parametrize("config", [
    ExpCutsConfig(),
    ExpCutsConfig(habs_bits_log2=2),
    ExpCutsConfig(stride=4, habs_bits_log2=0),
])
def test_unaggregated_image_matches_the_decompress_loop(config):
    """The uncompressed image expands each level's CPAs from the HABS
    bits in NumPy; it must equal, word for word, the per-node
    ``HabsArray.decompress`` encoder of :func:`_loop_pack` on a
    profile-sized tree, before and after a copy-on-write edit."""
    ruleset = generate(PROFILES["FW01"], size=120, seed=5).with_default()
    tree = build_expcuts(ruleset, config)
    edited = copy.deepcopy(tree)
    rule = (len(ruleset),) + flat_projection(ruleset)[3][1:]
    insert_into_tree(edited, rule, lambda existing: True)
    assert len(edited.nodes) > len(tree.nodes)
    for candidate in (tree, edited):
        image = pack_tree(candidate, aggregated=False)
        levels, root_ptr = _loop_pack(candidate, aggregated=False)
        assert [seg.tolist() for seg in image.levels] == levels
        assert image.root_ptr == root_ptr
