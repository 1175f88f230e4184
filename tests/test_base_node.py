"""Tests for the shared IndexNode abstraction and base helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.indexes.base import (
    IndexNode,
    assign_addresses,
    count_blocks,
    next_index_id,
)
from repro.mem.layout import Allocator
from repro.params import BLOCK_SIZE, KEY_BYTES, PTR_BYTES


class TestIndexNode:
    def test_leaf_detection(self):
        leaf = IndexNode(0, [1], values=[10])
        inner = IndexNode(0, [1], children=[leaf, leaf])
        assert leaf.is_leaf
        assert not inner.is_leaf

    def test_default_bounds_from_keys(self):
        node = IndexNode(0, [3, 7, 9], values=[0, 0, 0])
        assert node.lo == 3 and node.hi == 9

    def test_explicit_bounds_override(self):
        node = IndexNode(0, [5], values=[0], lo=0, hi=100)
        assert node.lo == 0 and node.hi == 100

    def test_covers(self):
        node = IndexNode(0, [5], values=[0], lo=10, hi=20)
        assert node.covers(10) and node.covers(20) and node.covers(15)
        assert not node.covers(9) and not node.covers(21)

    def test_covers_with_no_bounds(self):
        node = IndexNode(0, [], values=[])
        assert not node.covers(5)

    def test_byte_size_counts_keys_and_pointers(self):
        leaf = IndexNode(0, [1, 2, 3], values=[0, 0, 0])
        assert leaf.byte_size() == 3 * KEY_BYTES + 3 * PTR_BYTES

    def test_child_for_on_leaf_rejected(self):
        leaf = IndexNode(0, [1], values=[0])
        with pytest.raises(TypeError):
            leaf.child_for(1)

    def test_child_for_separator_semantics(self):
        kids = [IndexNode(1, [i], values=[i]) for i in range(3)]
        inner = IndexNode(0, [10, 20], children=kids)
        assert inner.child_for(5) is kids[0]
        assert inner.child_for(10) is kids[1]   # key == separator goes right
        assert inner.child_for(15) is kids[1]
        assert inner.child_for(25) is kids[2]

    def test_node_ids_unique(self):
        a = IndexNode(0, [1], values=[0])
        b = IndexNode(0, [1], values=[0])
        assert a.node_id != b.node_id

    def test_index_ids_unique(self):
        assert next_index_id() != next_index_id()


def _branch_index(separators, key):
    """The reference separator search: child ``i`` holds keys below
    ``separators[i]``, the last child the rest."""
    lo, hi = 0, len(separators)
    while lo < hi:
        mid = (lo + hi) // 2
        if key < separators[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestBranchIndex:
    @settings(max_examples=100, deadline=None)
    @given(
        separators=st.lists(st.integers(0, 1000), min_size=1, max_size=20)
        .map(sorted),
        key=st.integers(-10, 1010),
    )
    def test_property_matches_bisect_right(self, separators, key):
        children = [IndexNode(0, [i], values=[i]) for i in range(len(separators) + 1)]
        node = IndexNode(1, separators, children=children)
        assert node.child_for(key) is children[_branch_index(separators, key)]


class TestAddressAssignment:
    def test_assign_addresses_aligned_and_distinct(self):
        nodes = [IndexNode(0, [i], values=[i]) for i in range(10)]
        alloc = Allocator()
        total = assign_addresses(iter(nodes), alloc)
        addrs = [n.address for n in nodes]
        assert len(set(addrs)) == 10
        assert all(a % BLOCK_SIZE == 0 for a in addrs)
        assert total == sum(n.nbytes for n in nodes)

    def test_count_blocks(self):
        nodes = [IndexNode(0, list(range(20)), values=list(range(20)))
                 for _ in range(4)]
        alloc = Allocator()
        assign_addresses(iter(nodes), alloc)
        blocks = count_blocks(iter(nodes))
        expected = sum(
            len(list(Allocator.blocks_spanned(n.address, n.nbytes)))
            for n in nodes
        )
        assert blocks == expected
