"""Tests for range tags and node-to-block packing (Fig. 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ix_cache import IXCache
from repro.core.packing import blocks_needed, pack_node
from repro.core.range_tag import RangeTag
from repro.indexes.base import IndexNode
from repro.params import BLOCK_SIZE, CacheParams


IDENT = lambda k: k  # noqa: E731


class TestRangeTag:
    def test_matches_inclusive(self):
        tag = RangeTag(10, 20, 3)
        assert tag.matches(10) and tag.matches(20) and tag.matches(15)
        assert not tag.matches(9) and not tag.matches(21)

    def test_width(self):
        assert RangeTag(5, 5, 0).width() == 1
        assert RangeTag(0, 9, 0).width() == 10

    def test_overlaps(self):
        assert RangeTag(0, 10, 0).overlaps(RangeTag(10, 20, 0))
        assert not RangeTag(0, 9, 0).overlaps(RangeTag(10, 20, 0))

    def test_clip(self):
        tag = RangeTag(0, 100, 2)
        clipped = tag.clip(40, 60)
        assert clipped == RangeTag(40, 60, 2)

    def test_clip_disjoint_rejected(self):
        with pytest.raises(ValueError):
            RangeTag(0, 10, 0).clip(20, 30)

    @settings(max_examples=50, deadline=None)
    @given(lo=st.integers(0, 1000), width=st.integers(0, 1000),
           key=st.integers(0, 2000))
    def test_property_match_iff_in_range(self, lo, width, key):
        tag = RangeTag(lo, lo + width, 0)
        assert tag.matches(key) == (lo <= key <= lo + width)


class TestPackNode:
    def test_case1_small_node_single_entry(self):
        node = IndexNode(2, [5, 7], values=[1, 2])
        entries = pack_node(node, IDENT)
        assert len(entries) == 1
        tag, packed = entries[0]
        assert tag == RangeTag(5, 7, 2)
        assert packed is node

    def test_case2_wide_node_split(self):
        children = [IndexNode(3, [i], values=[i], lo=i * 10, hi=i * 10 + 9)
                    for i in range(20)]
        node = IndexNode(
            2, [c.lo for c in children[1:]], children=children,
            lo=0, hi=199,
        )
        entries = pack_node(node, IDENT)
        assert len(entries) == blocks_needed(node)
        assert len(entries) > 1
        # Sub-ranges tile the node's range in order.
        assert entries[0][0].lo == 0
        assert entries[-1][0].hi == 199
        for (a, _), (b, _) in zip(entries, entries[1:]):
            assert a.hi <= b.lo

    def test_oversized_leaf_split(self):
        keys = list(range(0, 300, 3))
        node = IndexNode(5, keys, values=keys)
        entries = pack_node(node, IDENT)
        assert len(entries) > 1
        assert entries[0][0].lo == 0
        assert entries[-1][0].hi == keys[-1]

    def test_sentinel_rejected(self):
        node = IndexNode(0, [1], values=[1], lo=float("-inf"), hi=10)
        assert pack_node(node, IDENT) == []

    def test_empty_node_rejected(self):
        node = IndexNode(0, [], values=[])
        assert pack_node(node, IDENT) == []

    def test_namespacing_applied(self):
        node = IndexNode(1, [5, 9], values=[0, 0])
        entries = pack_node(node, lambda k: k + 1000)
        assert entries[0][0] == RangeTag(1005, 1009, 1)


def small(level, lo, hi, n_keys=1):
    """A sub-block node over [lo, hi]: ``n_keys`` keys, 16 B each."""
    return IndexNode(level, list(range(lo, lo + n_keys)), values=[0] * n_keys,
                     lo=lo, hi=hi)


def insert_pair(a, b):
    """Tags cached after inserting ``a`` then ``b`` into one key block."""
    cache = IXCache(CacheParams(capacity_bytes=32 * BLOCK_SIZE, ways=4))
    assert cache.insert(a) and cache.insert(b)
    return sorted(entry.tag for entry in cache.entries())


class TestCoalescing:
    """Case-3 packing (Fig. 5) as ``IXCache.insert`` applies it."""

    def test_legal_coalesce(self):
        assert insert_pair(small(2, 0, 5), small(2, 6, 9)) == [RangeTag(0, 9, 2)]

    def test_level_mismatch(self):
        assert insert_pair(small(1, 0, 5), small(2, 6, 9)) == [
            RangeTag(0, 5, 1), RangeTag(6, 9, 2)]

    def test_size_overflow(self):
        # 48 B + 48 B does not fit one 64 B block.
        assert insert_pair(small(2, 0, 5, n_keys=3),
                           small(2, 6, 9, n_keys=3)) == [
            RangeTag(0, 5, 2), RangeTag(6, 9, 2)]

    def test_overlap_rejected(self):
        assert insert_pair(small(2, 0, 6), small(2, 6, 9)) == [
            RangeTag(0, 6, 2), RangeTag(6, 9, 2)]


class TestBlocksNeeded:
    def test_small_node_one_block(self):
        assert blocks_needed(IndexNode(0, [1, 2], values=[1, 2])) == 1

    def test_large_node_many_blocks(self):
        node = IndexNode(0, list(range(100)), values=list(range(100)))
        assert blocks_needed(node) == -(-node.byte_size() // BLOCK_SIZE)
