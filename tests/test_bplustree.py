"""Tests for the B+tree, including property-based structural invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.indexes.bplustree import BPlusTree


class TestBulkLoad:
    def test_empty(self):
        tree = BPlusTree.bulk_load([])
        assert len(tree) == 0
        assert tree.height == 1

    def test_single(self):
        tree = BPlusTree.bulk_load([(5, "v")])
        assert tree.get(5) == "v"
        assert tree.height == 1

    def test_unsorted_input(self):
        tree = BPlusTree.bulk_load([(3, "c"), (1, "a"), (2, "b")], fanout=2)
        assert [k for k, _ in tree.items()] == [1, 2, 3]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([(1, "a"), (1, "b")])

    def test_all_keys_retrievable(self):
        items = [(k, k * 10) for k in range(500)]
        tree = BPlusTree.bulk_load(items, fanout=5)
        for k, v in items:
            assert tree.get(k) == v

    def test_absent_key(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(0, 100, 2)], fanout=4)
        assert tree.get(31) is None
        assert tree.get(31, "dflt") == "dflt"
        assert 30 in tree and 31 not in tree

    def test_depth_grows_with_size(self):
        small = BPlusTree.bulk_load([(k, k) for k in range(10)], fanout=3)
        large = BPlusTree.bulk_load([(k, k) for k in range(1000)], fanout=3)
        assert large.height > small.height

    def test_fanout_for_depth(self):
        fanout = BPlusTree.fanout_for_depth(100_000, 10)
        tree = BPlusTree.bulk_load([(k, k) for k in range(5_000)], fanout=fanout)
        assert 6 <= tree.height  # deep-ish even at reduced key count

    def test_invariants_after_bulk_load(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(777)], fanout=4)
        tree.check_invariants()


class TestWalk:
    def test_walk_reaches_leaf(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(200)], fanout=4)
        path = tree.walk(137)
        assert path[0] is tree.root
        assert path[-1].is_leaf
        assert 137 in path[-1].keys

    def test_walk_levels_increase(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(200)], fanout=4)
        path = tree.walk(50)
        assert [n.level for n in path] == list(range(len(path)))

    def test_walk_covers_key(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(200)], fanout=4)
        for node in tree.walk(123)[1:]:
            assert node.covers(123)

    def test_walk_from_midpath(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(500)], fanout=4)
        full = tree.walk(321)
        mid = full[2]
        partial = tree.walk_from(mid, 321)
        assert partial == full[2:]

    def test_walk_from_noncovering_rejected(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(500)], fanout=4)
        leaf_of_0 = tree.walk(0)[-1]
        with pytest.raises(ValueError):
            tree.walk_from(leaf_of_0, 499)


class TestRangeScan:
    def test_inclusive_bounds(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(100)], fanout=4)
        assert [k for k, _ in tree.range_scan(10, 20)] == list(range(10, 21))

    def test_empty_range(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(100)], fanout=4)
        assert list(tree.range_scan(50, 40)) == []

    def test_sparse_keys(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(0, 100, 7)], fanout=4)
        assert [k for k, _ in tree.range_scan(10, 30)] == [14, 21, 28]

    def test_full_scan_equals_items(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(321)], fanout=5)
        assert list(tree.range_scan(0, 320)) == list(tree.items())


class TestInsert:
    def test_insert_into_empty(self):
        tree = BPlusTree(fanout=4)
        tree.insert(1, "a")
        assert tree.get(1) == "a"
        assert len(tree) == 1

    def test_insert_overwrites(self):
        tree = BPlusTree(fanout=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.get(1) == "b"
        assert len(tree) == 1

    def test_insert_many_sorted_order(self):
        tree = BPlusTree(fanout=4)
        for k in range(200):
            tree.insert(k, k)
        assert [k for k, _ in tree.items()] == list(range(200))
        tree.check_invariants()

    def test_insert_reverse_order(self):
        tree = BPlusTree(fanout=3)
        for k in reversed(range(150)):
            tree.insert(k, k)
        tree.check_invariants()
        assert tree.get(0) == 0 and tree.get(149) == 149

    def test_insert_into_bulk_loaded(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(0, 100, 2)], fanout=4)
        for k in range(1, 100, 2):
            tree.insert(k, -k)
        tree.check_invariants()
        assert len(tree) == 100
        assert tree.get(31) == -31

    def test_addresses_assigned_to_new_nodes(self):
        tree = BPlusTree(fanout=3)
        for k in range(100):
            tree.insert(k, k)
        for node in tree.nodes():
            assert node.address > 0
            assert node.nbytes > 0

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            BPlusTree(fanout=1)


class _LinearInsertTree(BPlusTree):
    """Inserts descend by the reference linear separator scan."""

    def _insert(self, node, key, value):
        if node.is_leaf:
            return self._insert_into_leaf(node, key, value)
        idx = 0
        while idx < len(node.keys) and key >= node.keys[idx]:
            idx += 1
        child = node.children[idx]
        split = self._insert(child, key, value)
        node.lo = node.children[0].lo
        node.hi = node.children[-1].hi
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        node.hi = node.children[-1].hi
        if len(node.children) <= self.fanout:
            return None
        return self._split_internal(node)


def _shape(tree):
    return [
        (node.level, list(node.keys), node.lo, node.hi, node.address)
        for node in tree.nodes()
    ]


class TestSeparatorSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 500), max_size=200),
        fanout=st.integers(3, 6),
        probes=st.lists(st.integers(-5, 505), max_size=20),
    )
    def test_property_insert_matches_linear_scan(self, keys, fanout, probes):
        tree = BPlusTree(fanout=fanout)
        reference = _LinearInsertTree(fanout=fanout)
        for key in keys:
            tree.insert(key, -key)
            reference.insert(key, -key)
        assert _shape(tree) == _shape(reference)
        for key in probes:
            assert [(n.level, n.keys) for n in tree.walk(key)] == [
                (n.level, n.keys) for n in reference.walk(key)
            ]
            assert tree.get(key) == reference.get(key)


class TestGeometry:
    def test_nodes_bfs_order(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(100)], fanout=4)
        levels = [n.level for n in tree.nodes()]
        assert levels == sorted(levels)

    def test_level_nodes_partition(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(300)], fanout=4)
        total = sum(len(tree.level_nodes(lvl)) for lvl in range(tree.height))
        assert total == sum(1 for _ in tree.nodes())

    def test_total_blocks_positive(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(300)], fanout=4)
        assert tree.total_blocks() > 0


@settings(max_examples=50, deadline=None)
@given(keys=st.sets(st.integers(0, 10_000), min_size=1, max_size=300),
       fanout=st.integers(3, 9))
def test_property_bulk_load_invariants(keys, fanout):
    tree = BPlusTree.bulk_load([(k, k) for k in keys], fanout=fanout)
    tree.check_invariants()
    assert sorted(keys) == [k for k, _ in tree.items()]


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(st.integers(0, 2_000), min_size=1, max_size=200),
       fanout=st.integers(3, 6))
def test_property_insert_invariants(keys, fanout):
    tree = BPlusTree(fanout=fanout)
    for k in keys:
        tree.insert(k, k * 2)
    tree.check_invariants()
    for k in keys:
        assert tree.get(k) == k * 2


@settings(max_examples=40, deadline=None)
@given(keys=st.sets(st.integers(0, 5_000), min_size=2, max_size=200),
       fanout=st.integers(3, 7))
def test_property_walk_finds_every_key(keys, fanout):
    tree = BPlusTree.bulk_load([(k, k) for k in keys], fanout=fanout)
    for k in keys:
        leaf = tree.walk(k)[-1]
        assert k in leaf.keys


@settings(max_examples=30, deadline=None)
@given(keys=st.sets(st.integers(0, 1_000), min_size=5, max_size=150))
def test_property_range_scan_matches_filter(keys):
    tree = BPlusTree.bulk_load([(k, k) for k in keys], fanout=4)
    lo, hi = 100, 600
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert [k for k, _ in tree.range_scan(lo, hi)] == expected
