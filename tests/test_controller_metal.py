"""Tests for the pattern controller and the Metal/MetalIX facades."""

from repro.core.controller import PatternController
from repro.core.descriptors import (
    LevelDescriptor,
    NodeDescriptor,
    WalkContext,
)
from repro.core.ix_cache import IXCache
from repro.core.metal import Metal, MetalIX
from repro.indexes.base import IndexNode
from repro.params import BLOCK_SIZE, CacheParams


def node(level, lo=0, hi=10):
    return IndexNode(level, [lo, hi], values=[0, 0], lo=lo, hi=hi)


def make_cache(entries=32):
    return IXCache(CacheParams(capacity_bytes=entries * BLOCK_SIZE, ways=4))


HEIGHT = 6


class TestController:
    def test_default_descriptor_applies_to_all(self):
        ctl = PatternController(LevelDescriptor(1, 3, min_touches=1), make_cache())
        assert ctl.decide(0, node(2), HEIGHT).insert
        assert ctl.decide(99, node(2), HEIGHT).insert

    def test_per_index_descriptors(self):
        ctl = PatternController(
            {7: NodeDescriptor("leaf", life=1)}, make_cache()
        )
        assert ctl.decide(7, node(HEIGHT - 1), HEIGHT).insert
        assert not ctl.decide(7, node(0), HEIGHT).insert
        # Unknown index falls back to insert-all.
        assert ctl.decide(8, node(0), HEIGHT).insert

    def test_batch_history_recorded(self):
        cache = make_cache()
        ctl = PatternController(
            LevelDescriptor(1, 3, min_touches=1), cache, batch_walks=2
        )
        for _ in range(6):
            ctl.begin_walk(0, 5)
            ctl.decide(0, node(2), HEIGHT)
            ctl.end_walk()
        assert len(ctl.history) == 3
        assert all("descriptors" in h for h in ctl.history)

    def test_tuning_can_be_disabled(self):
        desc = LevelDescriptor(2, 3, low_utility=1.0)
        ctl = PatternController(desc, make_cache(), batch_walks=1, tune=False)
        for _ in range(8):
            ctl.begin_walk(0, 5)
            ctl.decide(0, node(2), HEIGHT)
            ctl.end_walk()
        assert (desc.start, desc.end) == (2, 3)

    def test_invalid_batch(self):
        import pytest

        with pytest.raises(ValueError):
            PatternController(LevelDescriptor(1, 2), make_cache(), batch_walks=0)

    def test_insertions_by_level_feed_feedback(self):
        desc = LevelDescriptor(1, HEIGHT - 1, min_touches=1, frontier=False,
                               low_utility=0.9, high_utility=1e9)
        cache = make_cache(entries=4)
        ctl = PatternController(desc, cache, batch_walks=4)
        # Insert lots at deep level with no hits -> utility low -> after two
        # low batches the band shifts up.
        for i in range(16):
            ctl.begin_walk(0, i)
            ctl.decide(0, node(HEIGHT - 1, lo=i * 100, hi=i * 100 + 5), HEIGHT)
            ctl.end_walk()
        assert desc.end < HEIGHT - 1


class TestMetalIX:
    def test_insert_all_policy(self):
        policy = MetalIX(CacheParams(capacity_bytes=32 * BLOCK_SIZE))
        n = node(2, 0, 10)
        assert policy.consider(0, n, HEIGHT, lambda k: k)
        assert policy.cache.probe(5) is n

    def test_no_controller(self):
        assert MetalIX().controller is None

    def test_stats_exposed(self):
        policy = MetalIX()
        policy.cache.probe(1)
        assert policy.stats.accesses == 1


class TestMetal:
    def test_bypass_respected(self):
        policy = Metal(NodeDescriptor("leaf", life=1))
        upper = node(0, 0, 10)
        assert not policy.consider(0, upper, HEIGHT, lambda k: k)
        assert policy.cache.stats.bypasses == 1
        assert policy.cache.probe(5) is None

    def test_insert_with_life(self):
        policy = Metal(NodeDescriptor("leaf", life=9))
        leaf = node(HEIGHT - 1, 0, 10)
        assert policy.consider(0, leaf, HEIGHT, lambda k: k)
        entry = policy.cache.entries()[0]
        assert entry.life == 9

    def test_walk_lifecycle_batches(self):
        policy = Metal(LevelDescriptor(1, 3, min_touches=1), batch_walks=2)
        for i in range(4):
            policy.controller.begin_walk(0, i)
            policy.consider(0, node(2, i * 50, i * 50 + 5), HEIGHT,
                            lambda k: k, WalkContext(False, 0))
            policy.controller.end_walk()
        assert len(policy.controller.history) == 2

    def test_key_focused_insert_forwarded(self):
        policy = Metal(LevelDescriptor(0, HEIGHT - 1, min_level=0, min_touches=1,
                                       frontier=False))
        children = [node(3, i * 10, i * 10 + 9) for i in range(30)]
        wide = IndexNode(2, [c.lo for c in children[1:]], children=children,
                         lo=0, hi=299)
        policy.consider(0, wide, HEIGHT, lambda k: k, key=155)
        assert policy.cache.peek(155) is wide
        assert policy.cache.peek(5) is None

    def test_name_tags(self):
        assert MetalIX().name == "metal_ix"
        assert Metal(NodeDescriptor("leaf", life=1)).name == "metal"
