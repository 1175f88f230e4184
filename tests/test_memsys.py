"""Tests for the memory-system organizations (the Section 5 contenders)."""

import pytest

from repro.core.descriptors import LevelDescriptor, NodeDescriptor
from repro.indexes.bplustree import BPlusTree
from repro.params import BLOCK_SIZE, CacheParams, SimParams
from repro.sim.engine import K_DRAM, K_SRAM
from repro.sim.memsys import (
    AddressCacheMemSys,
    FAOPTMemSys,
    MetalMemSys,
    NS_STRIDE,
    StreamingMemSys,
    XCacheMemSys,
    make_memsys,
    namespace_fn,
    _node_blocks,
)
from tests.walks import walk


@pytest.fixture(scope="module")
def tree():
    return BPlusTree.bulk_load([(k, k) for k in range(2_000)], fanout=4)


def params(entries=64):
    return CacheParams(capacity_bytes=entries * BLOCK_SIZE)


class TestNamespace:
    def test_distinct_indexes_disjoint(self, tree):
        other = BPlusTree.bulk_load([(k, k) for k in range(10)])
        ns_a, ns_b = namespace_fn(tree), namespace_fn(other)
        assert ns_a(5) != ns_b(5)
        assert abs(ns_a(5) - ns_b(5)) % NS_STRIDE == 0

    def test_sentinels_clamped(self, tree):
        ns = namespace_fn(tree)
        assert ns(float("-inf")) == ns(0)
        assert ns(float("inf")) == ns(NS_STRIDE - 1)
        assert ns(-5) == ns(0)


class TestNodeBlocks:
    def test_small_node_one_block(self, tree):
        leaf = tree.walk(0)[-1]
        assert len(_node_blocks(leaf)) == 1

    def test_blocks_aligned(self, tree):
        for node in tree.walk(123):
            for addr in _node_blocks(node):
                assert addr % BLOCK_SIZE == 0

    def test_wide_node_sublinear(self):
        from repro.indexes.base import IndexNode

        node = IndexNode(0, list(range(200)), values=list(range(200)))
        node.address = 0
        node.nbytes = node.byte_size()
        total_blocks = -(-node.nbytes // BLOCK_SIZE)
        touched = _node_blocks(node)
        assert len(touched) < total_blocks
        assert len(touched) >= 2


class TestStreaming:
    def test_every_node_hits_dram(self, tree):
        ms = StreamingMemSys()
        trace = walk(ms, tree, 1_000)
        assert trace.count(K_DRAM) >= tree.height
        assert trace.nodes_visited == tree.height

    def test_no_cache_stats(self, tree):
        assert StreamingMemSys().cache_stats is None


class TestAddressCache:
    def test_second_walk_hits(self, tree):
        ms = AddressCacheMemSys(cache_params=params())
        t1 = walk(ms, tree, 500)
        t2 = walk(ms, tree, 500)
        assert t2.count(K_DRAM) < t1.count(K_DRAM)

    def test_probe_cost_per_block(self, tree):
        ms = AddressCacheMemSys(cache_params=params())
        trace = walk(ms, tree, 500)
        assert trace.count(K_SRAM) >= tree.height  # one probe per touched block


class TestXCache:
    def test_hit_short_circuits_completely(self, tree):
        ms = XCacheMemSys(cache_params=params())
        walk(ms, tree, 42)
        trace = walk(ms, tree, 42)
        assert trace.full_hit
        assert trace.count(K_DRAM) == 0

    def test_adjacent_key_misses(self, tree):
        ms = XCacheMemSys(cache_params=params())
        walk(ms, tree, 42)
        trace = walk(ms, tree, 43)  # same leaf, different key
        assert not trace.full_hit

    def test_miss_walks_root_to_leaf(self, tree):
        ms = XCacheMemSys(cache_params=params())
        trace = walk(ms, tree, 99)
        assert trace.nodes_visited == tree.height


class TestFAOPT:
    def test_prepare_and_replay(self, tree):
        keys = [5, 10, 5, 10, 5]
        ms = FAOPTMemSys.prepare([(tree, k) for k in keys], params())
        traces = [walk(ms, tree, k) for k in keys]
        # Later repeats should be cheaper than the first walk.
        assert traces[-1].count(K_DRAM) < traces[0].count(K_DRAM)

    def test_overrun_rejected(self, tree):
        ms = FAOPTMemSys.prepare([(tree, 1)], params())
        walk(ms, tree, 1)
        with pytest.raises(IndexError):
            walk(ms, tree, 1)

    def test_fa_probe_cost_used(self, tree):
        sim = SimParams()
        ms = FAOPTMemSys.prepare([(tree, 1)], params(), sim)
        trace = walk(ms, tree, 1)
        assert trace.probes()
        assert all(cycles == sim.t_fa_probe for _, cycles in trace.probes())


class TestMetalMemSys:
    def test_miss_then_short_circuit(self, tree):
        ms = make_memsys("metal_ix", cache_params=params())
        t1 = walk(ms, tree, 777)
        assert not t1.short_circuited
        t2 = walk(ms, tree, 777)
        assert t2.short_circuited
        assert t2.start_level > 0

    def test_full_hit_at_leaf(self, tree):
        ms = make_memsys("metal_ix", cache_params=params())
        walk(ms, tree, 777)
        t2 = walk(ms, tree, 777)
        # Leaf was inserted on the first walk: complete short-circuit.
        assert t2.full_hit
        assert t2.count(K_DRAM) == 0

    def test_sibling_key_partial_short_circuit(self, tree):
        ms = make_memsys("metal_ix", cache_params=params())
        walk(ms, tree, 1_000)
        trace = walk(ms, tree, 1_900)
        # Root is cached, so at minimum the walk starts below level 0...
        assert trace.short_circuited

    def test_metal_respects_descriptor(self, tree):
        desc = NodeDescriptor("leaf", life=1)
        ms = make_memsys("metal", cache_params=params(), descriptors=desc)
        walk(ms, tree, 55)
        stats = ms.cache_stats
        assert stats.bypasses > 0  # non-leaf nodes bypassed

    def test_probe_charged_once_per_walk(self, tree):
        sim = SimParams()
        ms = make_memsys("metal_ix", sim=sim, cache_params=params())
        trace = walk(ms, tree, 3)
        probes = trace.probes()
        assert len(probes) == 1
        assert probes[0][1] == sim.t_ix_probe


class TestFactory:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_memsys("l2")

    def test_metal_requires_descriptors(self):
        with pytest.raises(ValueError):
            make_memsys("metal")

    def test_fa_opt_requires_requests(self):
        with pytest.raises(ValueError):
            make_memsys("fa_opt")

    @pytest.mark.parametrize("kind, kwargs, named", [
        ("xcache", {"ways_typo": 4, "policy": "lru"}, "'policy', 'ways_typo'"),
        ("metal_ix", {"tuner": {}, "batch_walks": 5}, "'batch_walks', 'tuner'"),
    ])
    def test_arguments_the_kind_does_not_take_raise(self, kind, kwargs, named):
        with pytest.raises(TypeError, match=f"'{kind}' does not take {named}$"):
            make_memsys(kind, **kwargs)

    def test_all_kinds_constructible(self, tree):
        for kind in ("stream", "address", "xcache", "metal_ix"):
            assert make_memsys(kind).name == kind
        assert make_memsys(
            "metal", descriptors=LevelDescriptor(1, 3)
        ).name == "metal"
        assert make_memsys("fa_opt", requests=[(tree, 1)]).name == "fa_opt"


class TestRangeScans:
    def test_scan_streams_leaves(self, tree):
        ms = StreamingMemSys()
        point = walk(ms, tree, 100)
        ms2 = StreamingMemSys()
        scan = walk(ms2, tree, 100, scan_hi=160)
        assert scan.count(K_DRAM) > point.count(K_DRAM)

    def test_scan_bounded_by_hi(self, tree):
        ms = StreamingMemSys()
        narrow = walk(ms, tree, 100, scan_hi=110)
        ms2 = StreamingMemSys()
        wide = walk(ms2, tree, 100, scan_hi=400)
        assert wide.nodes_visited > narrow.nodes_visited

    def test_address_cache_serves_rescans(self, tree):
        ms = AddressCacheMemSys(cache_params=params(256))
        first = walk(ms, tree, 100, scan_hi=160)
        second = walk(ms, tree, 100, scan_hi=160)
        assert second.count(K_DRAM) < first.count(K_DRAM)

    def test_metal_serves_cached_scan_leaves(self, tree):
        ms = make_memsys("metal_ix", cache_params=params(256))
        first = walk(ms, tree, 100, scan_hi=160)
        second = walk(ms, tree, 100, scan_hi=160)
        assert second.count(K_DRAM) < first.count(K_DRAM)

    def test_empty_range_is_point_walk(self, tree):
        ms = StreamingMemSys()
        scan = walk(ms, tree, 100, scan_hi=100)
        assert scan.nodes_visited >= tree.height
