"""Tests for reuse descriptors (Node / Level / Branch / Composite)."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.descriptors import (
    BatchFeedback,
    BranchDescriptor,
    CompositeDescriptor,
    LevelDescriptor,
    NodeDescriptor,
    TouchFilter,
    WalkContext,
)
from repro.indexes.base import IndexNode


def node(level, lo=0, hi=10, nvalues=3):
    return IndexNode(level, list(range(lo, lo + nvalues)),
                     values=[0] * nvalues, lo=lo, hi=hi)


HEIGHT = 8


class TestTouchFilter:
    def test_first_touch_blocked(self):
        f = TouchFilter(min_touches=2)
        assert not f.admit(1)
        assert f.admit(1)

    def test_min_touches_one_always_admits(self):
        f = TouchFilter(min_touches=1)
        assert f.admit(99)

    def test_capacity_forgets_old(self):
        f = TouchFilter(capacity=2, min_touches=2)
        f.admit(1)
        f.admit(2)
        f.admit(3)  # evicts 1
        assert not f.admit(1)  # counted as first touch again

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TouchFilter(capacity=0)
        with pytest.raises(ValueError):
            TouchFilter(min_touches=0)


class TestNodeDescriptor:
    def test_leaf_target(self):
        d = NodeDescriptor("leaf", life=5)
        assert d.decide(node(HEIGHT - 1), HEIGHT).insert
        assert not d.decide(node(HEIGHT - 2), HEIGHT).insert

    def test_integer_target(self):
        d = NodeDescriptor(3, life=1)
        assert d.decide(node(3), HEIGHT).insert
        assert not d.decide(node(4), HEIGHT).insert

    def test_fixed_life(self):
        d = NodeDescriptor("leaf", life=7)
        assert d.decide(node(HEIGHT - 1), HEIGHT).life == 7

    def test_default_life_counts_payload(self):
        d = NodeDescriptor("leaf")
        decision = d.decide(node(HEIGHT - 1, nvalues=4), HEIGHT)
        assert decision.insert and decision.life == 4

    def test_life_and_life_fn_exclusive(self):
        with pytest.raises(ValueError):
            NodeDescriptor("leaf", life_fn=lambda n: 1, life=2)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            NodeDescriptor("root")

    def test_touch_filter(self):
        d = NodeDescriptor("leaf", life=1, min_touches=2)
        n = node(HEIGHT - 1)
        assert not d.decide(n, HEIGHT).insert
        assert d.decide(n, HEIGHT).insert


def feedback(hits=None, inserted=None, hit_rate=0.5, occupancy=0.5):
    return BatchFeedback(hits or {}, inserted or {}, hit_rate, occupancy)


class TestLevelDescriptor:
    def test_band_membership(self):
        d = LevelDescriptor(2, 5, min_touches=1)
        assert d.decide(node(2), HEIGHT).insert
        assert d.decide(node(5), HEIGHT).insert
        assert not d.decide(node(1), HEIGHT).insert
        assert not d.decide(node(6), HEIGHT).insert

    def test_band_clamped_to_height(self):
        d = LevelDescriptor(2, 20, min_touches=1)
        assert not d.decide(node(9), HEIGHT).insert  # beyond height-1

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            LevelDescriptor(5, 2)

    def test_deep_levels_filtered(self):
        d = LevelDescriptor(1, 7, min_touches=2)
        deep = node(7)
        assert not d.decide(deep, HEIGHT).insert  # first touch
        assert d.decide(deep, HEIGHT).insert

    def test_shallow_levels_unfiltered(self):
        d = LevelDescriptor(1, 7, min_touches=2)
        assert d.decide(node(1), HEIGHT).insert

    def test_frontier_growth_position_zero_only(self):
        d = LevelDescriptor(1, 7, min_touches=1)
        n = node(5)
        ctx0 = WalkContext(short_circuited=True, position=0)
        ctx1 = WalkContext(short_circuited=True, position=1)
        assert d.decide(n, HEIGHT, ctx0).insert
        assert not d.decide(node(6), HEIGHT, ctx1).insert

    def test_non_frontier_ignores_ctx(self):
        d = LevelDescriptor(1, 7, min_touches=1, frontier=False)
        ctx1 = WalkContext(short_circuited=True, position=3)
        assert d.decide(node(6), HEIGHT, ctx1).insert

    def test_tune_low_utility_shifts_up(self):
        d = LevelDescriptor(3, 6, low_utility=1.0, high_utility=4.0)
        fb = feedback(hits={4: 1}, inserted={4: 100})
        d.tune(fb)  # first low batch: hysteresis holds
        assert (d.start, d.end) == (3, 6)
        d.tune(fb)
        assert (d.start, d.end) == (2, 5)

    def test_tune_high_utility_extends_end(self):
        d = LevelDescriptor(3, 5, high_utility=2.0, max_level=HEIGHT - 1)
        fb = feedback(hits={4: 100}, inserted={4: 10})
        d.tune(fb)
        assert d.end == 6

    def test_tune_end_clamped_to_max(self):
        d = LevelDescriptor(3, HEIGHT - 1, high_utility=2.0, max_level=HEIGHT - 1)
        d.tune(feedback(hits={4: 100}, inserted={4: 10}))
        assert d.end == HEIGHT - 1

    def test_tune_no_insertions_counts_as_high(self):
        d = LevelDescriptor(3, 5, max_level=HEIGHT - 1)
        d.tune(feedback(hits={4: 10}, inserted={}))
        assert d.end == 6

    def test_describe(self):
        d = LevelDescriptor(2, 4)
        assert d.describe() == {"pattern": "level", "start": 2, "end": 4}


class TestBranchDescriptor:
    def test_depth_limits_levels(self):
        d = BranchDescriptor(depth=2)
        assert not d.decide(node(HEIGHT - 3), HEIGHT).insert
        assert d.decide(node(HEIGHT - 1), HEIGHT).insert

    def test_no_pivot_inserts_all_in_depth(self):
        d = BranchDescriptor(depth=3)
        assert d.decide(node(HEIGHT - 1), HEIGHT).insert

    def test_pivot_tracks_median(self):
        d = BranchDescriptor(depth=3, window=32)
        for k in range(100, 200):
            d.observe_key(k)
        assert d.pivot is not None
        assert 150 <= d.pivot <= 200

    def test_far_nodes_bypassed_with_halfwidth(self):
        d = BranchDescriptor(depth=3, halfwidth=10, window=8)
        for k in [100] * 10:
            d.observe_key(k)
        near = node(HEIGHT - 1, lo=95, hi=105)
        far = node(HEIGHT - 1, lo=500, hi=510)
        assert d.decide(near, HEIGHT).insert
        assert not d.decide(far, HEIGHT).insert

    def test_tune_grows_depth_on_hits(self):
        d = BranchDescriptor(depth=2, grow_hit_rate=0.4)
        d.tune(feedback(hit_rate=0.8, occupancy=0.5))
        assert d.depth == 3

    def test_tune_widens_on_misses(self):
        d = BranchDescriptor(depth=3, halfwidth=10)
        d.tune(feedback(hit_rate=0.05, occupancy=1.0))
        assert d.halfwidth == 20

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            BranchDescriptor(depth=0)

    @settings(max_examples=100, deadline=None)
    @given(
        window=st.integers(0, 40),
        keys=st.lists(st.integers(-(1 << 40), 1 << 40), max_size=200),
    )
    def test_sorted_window_matches_statistics(self, window, keys):
        # The sorted copy of the window gives statistics.median's pivot
        # and the min/max width after every key, also once the window
        # overflows and evicts its oldest keys.
        d = BranchDescriptor(depth=3, window=window)
        pivot = None
        for i, key in enumerate(keys):
            d.observe_key(key)
            recent = keys[max(0, i + 1 - window):i + 1] if window else []
            if len(recent) >= max(8, window // 8):
                pivot = int(statistics.median(recent))
            assert d.pivot == pivot
            if len(recent) >= 2:
                assert d._width() == max(1, (max(recent) - min(recent)) // 2)
            else:
                assert d._width() == 1 << 30


class TestComposite:
    def test_any_mode_union(self):
        d = CompositeDescriptor(
            [NodeDescriptor("leaf", life=3), LevelDescriptor(1, 2, min_touches=1)]
        )
        assert d.decide(node(HEIGHT - 1), HEIGHT).insert  # node member
        assert d.decide(node(2), HEIGHT).insert  # level member
        assert not d.decide(node(4), HEIGHT).insert

    def test_any_mode_takes_max_life(self):
        d = CompositeDescriptor(
            [NodeDescriptor("leaf", life=9),
             LevelDescriptor(0, HEIGHT - 1, min_level=0, min_touches=1)]
        )
        assert d.decide(node(HEIGHT - 1), HEIGHT).life == 9

    def test_all_mode_intersection(self):
        d = CompositeDescriptor(
            [NodeDescriptor(5, life=1), LevelDescriptor(4, 6, min_touches=1)],
            mode="all",
        )
        assert d.decide(node(5), HEIGHT).insert
        assert not d.decide(node(4), HEIGHT).insert  # node member says no

    def test_observe_and_tune_propagate(self):
        branch = BranchDescriptor(depth=2, grow_hit_rate=0.4)
        d = CompositeDescriptor([branch])
        for k in range(50):
            d.observe_key(k)
        assert branch.pivot is not None
        d.tune(feedback(hit_rate=0.9, occupancy=0.2))
        assert branch.depth == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeDescriptor([])

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            CompositeDescriptor([NodeDescriptor("leaf", life=1)], mode="xor")
