"""Tests for B+tree deletion with rebalancing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.indexes.bplustree import BPlusTree
from repro.params import BLOCK_SIZE, CacheParams
from repro.sim.memsys import make_memsys
from tests.walks import walk


def tree_of(keys, fanout=4):
    return BPlusTree.bulk_load([(k, k * 10) for k in keys], fanout=fanout)


class TestDeleteBasics:
    def test_delete_present(self):
        t = tree_of(range(100))
        assert t.delete(42)
        assert t.get(42) is None
        assert len(t) == 99

    def test_delete_absent(self):
        t = tree_of(range(10))
        assert not t.delete(999)
        assert len(t) == 10

    def test_delete_all(self):
        t = tree_of(range(50), fanout=3)
        for k in range(50):
            assert t.delete(k)
        assert len(t) == 0
        assert list(t.items()) == []

    def test_delete_then_reinsert(self):
        t = tree_of(range(30), fanout=3)
        t.delete(15)
        t.insert(15, "back")
        assert t.get(15) == "back"
        t.check_invariants()

    def test_delete_from_singleton(self):
        t = tree_of([7])
        assert t.delete(7)
        assert len(t) == 0
        assert t.get(7) is None

    def test_height_shrinks(self):
        t = tree_of(range(200), fanout=3)
        tall = t.height
        for k in range(190):
            t.delete(k)
        assert t.height < tall
        t.check_invariants()


class TestRebalancing:
    def test_invariants_after_interleaved_ops(self):
        rng = random.Random(11)
        t = BPlusTree(fanout=3)
        reference: dict[int, int] = {}
        for _ in range(600):
            k = rng.randrange(200)
            if rng.random() < 0.55:
                t.insert(k, k)
                reference[k] = k
            else:
                assert t.delete(k) == (k in reference)
                reference.pop(k, None)
        t.check_invariants()
        assert dict(t.items()) == reference

    def test_leaf_chain_intact_after_merges(self):
        t = tree_of(range(0, 120, 2), fanout=3)
        for k in range(0, 120, 4):
            t.delete(k)
        keys = [k for k, _ in t.items()]
        assert keys == sorted(keys)
        assert keys == [k for k in range(0, 120, 2) if k % 4 != 0]

    def test_range_scan_after_deletes(self):
        t = tree_of(range(100), fanout=4)
        for k in range(0, 100, 3):
            t.delete(k)
        expected = [k for k in range(20, 60) if k % 3 != 0]
        assert [k for k, _ in t.range_scan(20, 59)] == expected

    def test_delete_fires_invalidation_on_merge(self):
        t = tree_of(range(100), fanout=3)
        fired = []
        t.on_structural_change.append(lambda lo, hi: fired.append((lo, hi)))
        for k in range(60):
            t.delete(k)
        assert fired  # merges must have occurred


class TestDeleteWithIXCache:
    def test_cached_walks_survive_deletes(self):
        t = tree_of(range(0, 400, 2), fanout=3)
        ms = make_memsys(
            "metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE)
        )
        for k in range(0, 400, 2):
            walk(ms, t, k)
        for k in range(0, 400, 8):
            t.delete(k)
        for k in range(2, 400, 8):
            walk(ms, t, k)
            leaf = t.walk(k)[-1]
            assert k in leaf.keys
        t.check_invariants()


@settings(max_examples=30, deadline=None)
@given(
    initial=st.sets(st.integers(0, 300), min_size=1, max_size=120),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 300)), max_size=120
    ),
    fanout=st.integers(3, 6),
)
def test_property_matches_dict_reference(initial, ops, fanout):
    t = BPlusTree.bulk_load([(k, k) for k in initial], fanout=fanout)
    reference = {k: k for k in initial}
    for is_insert, key in ops:
        if is_insert:
            t.insert(key, key)
            reference[key] = key
        else:
            assert t.delete(key) == (key in reference)
            reference.pop(key, None)
    assert dict(t.items()) == reference
    t.check_invariants()
