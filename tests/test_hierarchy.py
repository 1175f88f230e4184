"""Tests for the two-level address hierarchy baseline."""

import pytest

from repro.mem.hierarchy import CacheHierarchy, HierarchyParams
from repro.params import BLOCK_SIZE, CacheParams
from repro.sim.engine import K_DRAM
from repro.sim.memsys import HierarchyMemSys, make_memsys
from repro.workloads.suite import build_workload
from repro.bench.runner import run_workload
from tests.walks import walk


class TestCacheHierarchy:
    def test_miss_then_l1_hit(self):
        h = CacheHierarchy()
        assert h.lookup(0) == 0
        h.insert(0)
        assert h.lookup(0) == 1

    def test_l2_hit_fills_l1(self):
        h = CacheHierarchy(HierarchyParams(
            l1=CacheParams(capacity_bytes=2 * BLOCK_SIZE, ways=2, t_hit=2),
            l2=CacheParams(capacity_bytes=64 * BLOCK_SIZE, ways=16, t_hit=14),
        ))
        h.insert(0)
        # Evict 0 from the tiny L1 by filling it with other blocks.
        h.insert(BLOCK_SIZE * 100)
        h.insert(BLOCK_SIZE * 200)
        h.insert(BLOCK_SIZE * 300)
        level = h.lookup(0)
        assert level in (1, 2)
        if level == 2:
            assert h.lookup(0) == 1  # now filled up into L1

    def test_latencies_ordered(self):
        h = CacheHierarchy()
        assert h.latency_of(1) < h.latency_of(2) <= h.miss_latency_cycles

    def test_latency_of_invalid(self):
        with pytest.raises(ValueError):
            CacheHierarchy().latency_of(3)

    def test_capacity(self):
        h = CacheHierarchy()
        assert h.total_capacity_bytes() == (
            h.params.l1.capacity_bytes + h.params.l2.capacity_bytes
        )


class TestHierarchyMemSys:
    def test_factory(self):
        assert make_memsys("address_l2").name == "address_l2"

    def test_repeat_walk_cheaper(self):
        from repro.indexes.bplustree import BPlusTree

        tree = BPlusTree.bulk_load([(k, k) for k in range(1_000)], fanout=4)
        ms = HierarchyMemSys(cache_params=CacheParams(capacity_bytes=16 * 1024))
        first = walk(ms, tree, 500)
        second = walk(ms, tree, 500)
        assert second.count(K_DRAM) < first.count(K_DRAM)

    def test_l1_hits_bypass_crossbar(self):
        from repro.indexes.bplustree import BPlusTree

        tree = BPlusTree.bulk_load([(k, k) for k in range(1_000)], fanout=4)
        ms = HierarchyMemSys(cache_params=CacheParams(capacity_bytes=16 * 1024))
        walk(ms, tree, 500)
        warm = walk(ms, tree, 500)
        l1_hits = [port for port, _ in warm.probes() if port < 0]
        assert l1_hits  # some probes served locally, no crossbar port

    def test_hierarchy_beats_flat_address_on_hot_set(self):
        wl = build_workload("scan", scale=0.06)
        flat = run_workload(wl, "address")
        l2 = run_workload(wl, "address_l2")
        # Same capacity budget; the hierarchy's L1 filter should not lose
        # badly (it can win or tie depending on the hot-set size).
        assert l2.makespan < flat.makespan * 1.3

    def test_metal_still_beats_hierarchy(self):
        wl = build_workload("scan", scale=0.06)
        l2 = run_workload(wl, "address_l2")
        metal = run_workload(wl, "metal")
        assert metal.makespan < l2.makespan
