"""Tests for IX-cache coherence with dynamically mutating indexes."""

import gc
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ix_cache import IXCache
from repro.core.range_tag import RangeTag
from repro.indexes.base import IndexNode
from repro.indexes.bplustree import BPlusTree
from repro.indexes.sparse_tensor import DynamicSparseTensor
from repro.obs.tracer import Tracer
from repro.params import BLOCK_SIZE, CacheParams
from repro.sim.memsys import make_memsys
from tests.walks import walk


def node(level, lo, hi):
    n = IndexNode(level, [lo, hi], values=[0, 0], lo=lo, hi=hi)
    n.nbytes = n.byte_size()
    return n


class TestInvalidateRange:
    def cache(self):
        return IXCache(CacheParams(capacity_bytes=32 * BLOCK_SIZE, ways=4))

    def test_overlapping_entries_dropped(self):
        c = self.cache()
        c.insert(node(2, 0, 10))
        c.insert(node(2, 100, 110))
        removed = c.invalidate_range(5, 50)
        assert removed == 1
        assert c.peek(5) is None
        assert c.peek(105) is not None

    def test_exact_boundary_overlap(self):
        c = self.cache()
        c.insert(node(2, 0, 10))
        assert c.invalidate_range(10, 20) == 1

    def test_disjoint_range_keeps_all(self):
        c = self.cache()
        c.insert(node(2, 0, 10))
        assert c.invalidate_range(50, 60) == 0
        assert c.peek(5) is not None

    def test_wide_entries_invalidated(self):
        c = IXCache(
            CacheParams(capacity_bytes=32 * BLOCK_SIZE, ways=4),
            key_block_bits=4, replication_limit=1,
        )
        c.insert(node(0, 0, 100_000))  # lands in the wide array
        assert c.invalidate_range(500, 501) == 1
        assert c.peek(500) is None

    def test_bad_range(self):
        with pytest.raises(ValueError):
            self.cache().invalidate_range(10, 5)


class TestBPlusTreeHooks:
    def test_split_fires_callback(self):
        tree = BPlusTree(fanout=3)
        fired: list[tuple] = []
        tree.on_structural_change.append(lambda lo, hi: fired.append((lo, hi)))
        for k in range(10):
            tree.insert(k, k)
        assert fired  # splits must have occurred at fanout 3
        lo, hi = fired[-1]
        assert lo <= hi

    def test_no_callback_without_split(self):
        tree = BPlusTree(fanout=100)
        fired: list[tuple] = []
        tree.on_structural_change.append(lambda lo, hi: fired.append((lo, hi)))
        tree.insert(1, "a")
        tree.insert(2, "b")
        assert fired == []

    def test_tensor_forwards_hooks(self):
        tensor = DynamicSparseTensor((100, 100), fanout=3)
        fired = []
        tensor.on_structural_change.append(lambda lo, hi: fired.append((lo, hi)))
        for c in range(20):
            tensor.set(0, c, 1.0)
        assert fired


class TestEndToEndCoherence:
    def test_interleaved_inserts_and_walks(self):
        """Probes must never return wrong leaves while the tree mutates."""
        rng = random.Random(3)
        tree = BPlusTree(fanout=3)
        for k in range(0, 400, 2):
            tree.insert(k, k * 10)
        ms = make_memsys(
            "metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE)
        )
        present = list(range(0, 400, 2))
        pending = list(range(1, 400, 2))
        rng.shuffle(pending)
        for step in range(300):
            if pending and step % 3 == 0:
                k = pending.pop()
                tree.insert(k, k * 10)
                present.append(k)
            key = rng.choice(present)
            trace = walk(ms, tree, key)
            assert trace.nodes_visited >= 0
            # Functional correctness: the tree still resolves the key.
            assert tree.get(key) == key * 10
        tree.check_invariants()

    def test_walks_after_mutation_reach_correct_leaf(self):
        tree = BPlusTree(fanout=3)
        for k in range(0, 300, 3):
            tree.insert(k, k)
        ms = make_memsys(
            "metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE)
        )
        # Warm the cache.
        for k in range(0, 300, 3):
            walk(ms, tree, k)
        # Mutate heavily (forces splits across the key space).
        for k in range(1, 300, 3):
            tree.insert(k, -k)
        # Every subsequent walk must land on a leaf containing the key.
        for k in range(1, 300, 3):
            walk(ms, tree, k)
            leaf = tree.walk(k)[-1]
            assert k in leaf.keys

    def test_stale_hit_without_hooks_falls_back(self):
        """Even with hooks stripped, walks degrade to full walks safely."""
        tree = BPlusTree(fanout=3)
        for k in range(0, 200, 2):
            tree.insert(k, k)
        ms = make_memsys(
            "metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE)
        )
        for k in range(0, 200, 2):
            walk(ms, tree, k)
        tree.on_structural_change.clear()  # sever the invalidation path
        for k in range(1, 200, 2):
            tree.insert(k, k)
        for k in range(1, 200, 2):
            trace = walk(ms, tree, k)
            assert trace is not None
            assert tree.get(k) == k


class TestHookLifetime:
    """A METAL run's invalidation hook lives exactly as long as its cache."""

    def test_runs_over_a_built_workload_leave_no_hooks(self):
        from repro.bench.runner import build_memsys
        from repro.sim.metrics import simulate
        from repro.workloads.suite import build_workload

        workload = build_workload("scan", scale=0.01)
        sim = workload.config.sim_params()
        indexes = {id(r.index): r.index for r in workload.requests}
        before = {i: len(index.on_structural_change)
                  for i, index in indexes.items()}
        runs = []
        for kind in ("metal", "metal_ix", "metal"):
            memsys = build_memsys(kind, workload, sim=sim)
            simulate(memsys, workload.requests, sim,
                     workload.total_index_blocks, walks=workload.walks)
            assert any(len(index.on_structural_change) > before[i]
                       for i, index in indexes.items())
            runs.append(weakref.ref(memsys))
            del memsys
        gc.collect()
        assert [ref() for ref in runs] == [None] * len(runs)
        assert {i: len(index.on_structural_change)
                for i, index in indexes.items()} == before

    def test_live_run_sees_invalidations(self):
        tree = BPlusTree(fanout=3)
        for k in range(0, 300, 3):
            tree.insert(k, k)
        ms = make_memsys(
            "metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE)
        )
        tracer = Tracer()
        ms.attach_obs(tracer)
        for k in range(0, 300, 3):
            walk(ms, tree, k)
        gc.collect()
        assert len(tree.on_structural_change) == 1
        for k in range(1, 300, 3):
            tree.insert(k, -k)
        assert [e for e in tracer.events("ix_evict")
                if e.args["reason"] == "invalidate"]
        del ms
        gc.collect()
        assert tree.on_structural_change == []

    def test_cleared_hook_list_is_tolerated(self, monkeypatch):
        unraised = []
        monkeypatch.setattr(sys, "unraisablehook", unraised.append)
        tree = BPlusTree(fanout=3)
        for k in range(0, 60, 2):
            tree.insert(k, k)
        ms = make_memsys("metal_ix")
        walk(ms, tree, 4)
        tree.on_structural_change.clear()
        del ms
        gc.collect()  # the hook's removal finds it already gone
        assert unraised == []
        assert tree.on_structural_change == []


@settings(max_examples=20, deadline=None)
@given(
    build=st.sets(st.integers(0, 500), min_size=5, max_size=60),
    extra=st.lists(st.integers(0, 500), min_size=1, max_size=40),
    seed=st.integers(0, 1000),
)
def test_property_probe_never_misroutes(build, extra, seed):
    """Under arbitrary interleavings, cached starts stay on correct paths."""
    rng = random.Random(seed)
    tree = BPlusTree(fanout=3)
    for k in build:
        tree.insert(k, k)
    ms = make_memsys(
        "metal_ix", cache_params=CacheParams(capacity_bytes=32 * BLOCK_SIZE)
    )
    keys = sorted(build)
    for k in extra:
        walk(ms, tree, rng.choice(keys))
        tree.insert(k, k)
        keys = sorted(set(keys) | {k})
        probe_key = rng.choice(keys)
        walk(ms, tree, probe_key)
        leaf = tree.walk(probe_key)[-1]
        assert probe_key in leaf.keys
