"""Tests for the pattern controller and METAL / METAL-IX memory systems."""

import copy
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import PatternController
from repro.core.descriptors import (
    BranchDescriptor,
    CompositeDescriptor,
    LevelDescriptor,
    NodeDescriptor,
    WalkContext,
)
from repro.core.ix_cache import IXCache
from repro.core.policy import ThresholdTuner
from repro.indexes.base import IndexNode
from repro.indexes.bplustree import BPlusTree
from repro.obs.tracer import Tracer
from repro.params import BLOCK_SIZE, CacheParams
from repro.sim.engine import K_DRAM
from repro.sim.memsys import make_memsys, namespace_fn
from tests.walks import walk


def node(level, lo=0, hi=10):
    return IndexNode(level, [lo, hi], values=[0, 0], lo=lo, hi=hi)


def make_cache(entries=32):
    return IXCache(CacheParams(capacity_bytes=entries * BLOCK_SIZE, ways=4))


HEIGHT = 6
IDENT = lambda k: k  # noqa: E731


def offer_walk(ctl, index_id, nodes, key=0, short=False, height=HEIGHT):
    """One controller-bracketed walk over ``nodes``; the ``(node, life)``
    pairs the controller inserted (None: no governing descriptor)."""
    descriptor = ctl.begin_walk(index_id, key)
    if descriptor is None:
        ctl.end_walk()
        return None
    inserted = []
    ctl.offer(descriptor, nodes, height, short,
              lambda n, life: inserted.append((n, life)))
    ctl.end_walk()
    return inserted


def cache_insert(ms, ns=IDENT, key=None):
    """The memory system's insert callback: cache a node at its life."""
    return lambda n, life: ms.cache.insert(n, ns, life, key)


def metal(descriptors, **kw):
    return make_memsys("metal", descriptors=descriptors, **kw)


class TestController:
    def test_default_descriptor_applies_to_all(self):
        ctl = PatternController(LevelDescriptor(1, 3, min_touches=1), make_cache())
        n = node(2)
        assert offer_walk(ctl, 0, [n]) == [(n, 0)]
        assert offer_walk(ctl, 99, [n]) == [(n, 0)]

    def test_per_index_descriptors(self):
        ctl = PatternController(
            {7: NodeDescriptor("leaf", life=1)}, make_cache()
        )
        leaf, root = node(HEIGHT - 1), node(0)
        assert offer_walk(ctl, 7, [root, leaf]) == [(leaf, 1)]
        assert ctl.cache.stats.bypasses == 1
        # Unknown index: no descriptor, the caller inserts everything.
        assert offer_walk(ctl, 8, [root]) is None

    def test_batch_history_recorded(self):
        cache = make_cache()
        ctl = PatternController(
            LevelDescriptor(1, 3, min_touches=1), cache, batch_walks=2
        )
        for _ in range(6):
            offer_walk(ctl, 0, [node(2)], key=5)
        assert len(ctl.history) == 3
        assert all("descriptors" in h for h in ctl.history)

    def test_tuning_can_be_disabled(self):
        desc = LevelDescriptor(2, 3, low_utility=1.0)
        ctl = PatternController(desc, make_cache(), batch_walks=1, tune=False)
        for _ in range(8):
            offer_walk(ctl, 0, [node(2)], key=5)
        assert (desc.start, desc.end) == (2, 3)

    def test_invalid_batch(self):
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
            offer_walk(ctl, 0, [node(HEIGHT - 1, lo=i * 100, hi=i * 100 + 5)],
                       key=i)
        assert desc.end < HEIGHT - 1


class TestMetalIX:
    def test_insert_all_policy(self):
        # METAL-IX has no decision layer: every fetched node is inserted.
        tree = BPlusTree.bulk_load([(k, k) for k in range(200)], fanout=4)
        ms = make_memsys("metal_ix",
                         cache_params=CacheParams(capacity_bytes=32 * BLOCK_SIZE))
        walk(ms, tree, 5)
        cached = {id(n) for e in ms.cache.entries() for _, n in e.parts}
        assert cached == {id(n) for n in tree.walk(5)}
        assert ms.cache_stats.bypasses == 0
        assert ms.cache.probe(namespace_fn(tree)(5)) is tree.walk(5)[-1]

    def test_no_controller(self):
        assert make_memsys("metal_ix").controller is None

    def test_stats_exposed(self):
        ms = make_memsys("metal_ix")
        ms.cache.probe(1)
        assert ms.cache_stats is ms.cache.stats
        assert ms.cache_stats.accesses == 1


class TestMetal:
    def test_controller_drives_the_cache(self):
        ms = metal(NodeDescriptor("leaf", life=1))
        assert ms.controller.cache is ms.cache

    def test_tuner_dict_builds_a_tuner(self):
        ms = metal(NodeDescriptor("leaf", life=1), tuner={"step": 3})
        assert isinstance(ms.controller.tuner, ThresholdTuner)
        assert ms.controller.tuner.step == 3

    def test_bypass_respected(self):
        ms = metal(NodeDescriptor("leaf", life=1))
        upper = node(0, 0, 10)
        assert offer_walk(ms.controller, 0, [upper]) == []
        assert ms.cache.stats.bypasses == 1
        assert ms.cache.probe(5) is None

    def test_insert_with_life(self):
        ms = metal(NodeDescriptor("leaf", life=9))
        leaf = node(HEIGHT - 1, 0, 10)
        ms.controller.offer(ms.controller.begin_walk(0, 5), [leaf],
                            HEIGHT, False, cache_insert(ms))
        entry = ms.cache.entries()[0]
        assert entry.life == 9

    def test_walk_lifecycle_batches(self):
        ms = metal(LevelDescriptor(1, 3, min_touches=1), batch_walks=2)
        for i in range(4):
            offer_walk(ms.controller, 0, [node(2, i * 50, i * 50 + 5)],
                       key=i)
        assert len(ms.controller.history) == 2

    def test_key_focused_insert_forwarded(self):
        ms = metal(LevelDescriptor(0, HEIGHT - 1, min_level=0, min_touches=1,
                                   frontier=False))
        children = [node(3, i * 10, i * 10 + 9) for i in range(30)]
        wide = IndexNode(2, [c.lo for c in children[1:]], children=children,
                         lo=0, hi=299)
        ms.controller.offer(ms.controller.begin_walk(0, 155), [wide],
                            HEIGHT, False, cache_insert(ms, key=155))
        assert ms.cache.peek(155) is wide
        assert ms.cache.peek(5) is None

    def test_name_tags(self):
        assert make_memsys("metal_ix").name == "metal_ix"
        assert metal(NodeDescriptor("leaf", life=1)).name == "metal"


# --------------------------------------------------------------------- #
# offer versus a per-node replay of decide
# --------------------------------------------------------------------- #

MAX_HEIGHT = 7


def _level_pool():
    """A few nodes per level, with disjoint key ranges, so random walks
    revisit nodes (the touch filters see repeats)."""
    return [[node(level, lo=i * 1000 + level * 10, hi=i * 1000 + level * 10 + 9)
             for i in range(3)] for level in range(MAX_HEIGHT)]


POOL = _level_pool()

DESCRIPTORS = {
    "node-leaf": lambda: NodeDescriptor("leaf", min_touches=2),
    "node-level": lambda: NodeDescriptor(2, life=3),
    "level-frontier": lambda: LevelDescriptor(1, 4, min_touches=2),
    "level-sweep": lambda: LevelDescriptor(1, 4, min_touches=2,
                                           frontier=False),
    "branch": lambda: BranchDescriptor(depth=3, window=16),
    "composite-any": lambda: CompositeDescriptor(
        [LevelDescriptor(1, 3, min_touches=2), BranchDescriptor(depth=2)]),
    "composite-all": lambda: CompositeDescriptor(
        [NodeDescriptor("leaf", min_touches=2), BranchDescriptor(depth=2)],
        mode="all"),
}


@st.composite
def random_walks(draw):
    """``(height, [(key, short, nodes)])``: walks that start below a
    cached level when short-circuited, and end at the leaf level."""
    height = draw(st.integers(2, MAX_HEIGHT))
    walks = []
    for _ in range(draw(st.integers(1, 12))):
        short = draw(st.booleans())
        first = draw(st.integers(1, height)) if short else 0
        nodes = [POOL[level][draw(st.integers(0, 2))]
                 for level in range(first, height)]
        walks.append((draw(st.integers(0, 3000)), short, nodes))
    return height, walks


class TestOffer:
    @pytest.mark.parametrize("kind", list(DESCRIPTORS))
    @settings(max_examples=60, deadline=None)
    @given(case=random_walks())
    def test_offer_equals_per_node_decide(self, kind, case):
        height, walks = case
        descriptor = DESCRIPTORS[kind]()
        twin = copy.deepcopy(descriptor)
        cache = make_cache()
        tracer = Tracer()
        cache.tracer = tracer
        ctl = PatternController(descriptor, cache, batch_walks=1 << 20)
        ctl.tracer = tracer
        got = []
        want = []
        want_levels = Counter()
        want_bypasses = 0
        want_events = []
        for key, short, nodes in walks:
            assert ctl.begin_walk(0, key) is descriptor
            ctl.offer(descriptor, nodes, height, short,
                      lambda n, life: got.append((n, life)))
            ctl.end_walk()
            twin.observe_key(key)
            for position, n in enumerate(nodes):
                decision = twin.decide(n, height, WalkContext(short, position))
                want_events.append(("desc_decision", {
                    "level": n.level, "insert": decision.insert,
                    "life": decision.life}))
                if decision.insert:
                    want.append((n, decision.life))
                    want_levels[n.level] += 1
                else:
                    want_bypasses += 1
                    want_events.append(("ix_bypass", {"reason": "pattern"}))
        assert got == want
        assert ctl._insertions_by_level == want_levels
        assert cache.stats.bypasses == want_bypasses
        assert [(e.kind, e.args) for e in tracer] == want_events

    def test_positions_past_preallocated_rows(self):
        seen = []

        class Recording(NodeDescriptor):
            def decide(self, n, height, ctx=None):
                seen.append(ctx)
                return super().decide(n, height, ctx)

        ctl = PatternController(Recording(), make_cache())
        nodes = [node(level) for level in range(100)]
        for short in (False, True):
            ctl.offer(ctl.begin_walk(0, 0), nodes, 100, short,
                      lambda n, life: None)
        assert seen == [WalkContext(short, p)
                        for short in (False, True) for p in range(100)]


class TestScannedLeafOffer:
    def test_missed_leaf_admitted_on_second_touch(self):
        """A scanned leaf is offered alone, as position 0 of a
        short-circuited walk: a frontier band's touch filter admits it
        on its second touch, then the scan serves it on-chip."""
        tree = BPlusTree.bulk_load([(k, k) for k in range(2_000)], fanout=4)
        leaf_level = tree.height - 1
        desc = LevelDescriptor(leaf_level, leaf_level, min_touches=2)
        ms = make_memsys("metal", cache_params=CacheParams(
            capacity_bytes=256 * BLOCK_SIZE), descriptors=desc, tune=False)
        cache = ms.cache
        ns = namespace_fn(tree)
        leaves = []
        leaf = tree.walk(100)[-1].next_leaf
        while leaf is not None and leaf.lo <= 160:
            leaves.append(leaf)
            leaf = leaf.next_leaf
        assert len(leaves) > 1

        first = walk(ms, tree, 100, scan_hi=160)
        # The walk's own leaf is in the band's upper half, inserted on a
        # full walk; the levels above the band and every scanned leaf
        # (first touch) are bypassed.
        assert cache.stats.bypasses == leaf_level + len(leaves)
        assert all(cache.peek(ns(lf.lo)) is not lf for lf in leaves)

        second = walk(ms, tree, 100, scan_hi=160)
        assert second.full_hit
        assert cache.stats.bypasses == leaf_level + len(leaves)
        assert all(cache.peek(ns(lf.lo)) is lf for lf in leaves)

        assert second.count(K_DRAM) > 0  # the scanned leaves, refetched
        third = walk(ms, tree, 100, scan_hi=160)
        assert third.count(K_DRAM) == 0
        assert first.nodes_visited == tree.height + len(leaves)
        assert third.nodes_visited == len(leaves)  # all served on-chip
