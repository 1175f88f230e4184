"""Tests for Belady-OPT replacement, including optimality properties."""

from hypothesis import given, settings, strategies as st

from repro.mem.opt_cache import belady_hit_flags, belady_hits
from tests.reference import opt_cache as reference


def lru_hits(trace, capacity):
    """Reference LRU hit count for comparison."""
    from collections import OrderedDict

    resident: OrderedDict[int, None] = OrderedDict()
    hits = 0
    for block in trace:
        if block in resident:
            hits += 1
            resident.move_to_end(block)
        else:
            if len(resident) >= capacity:
                resident.popitem(last=False)
            resident[block] = None
    return hits


class TestBeladyFlags:
    def test_empty_trace(self):
        assert belady_hit_flags([], 4) == []

    def test_no_capacity(self):
        assert belady_hit_flags([1, 1, 1], 0) == [False, False, False]

    def test_repeat_hits(self):
        assert belady_hit_flags([1, 1, 1], 1) == [False, True, True]

    def test_classic_example(self):
        # Capacity 2, trace where OPT keeps the sooner-reused block.
        trace = [1, 2, 3, 1, 2]
        flags = belady_hit_flags(trace, 2)
        # 1, 2 miss; 3 misses and evicts 2 (used later than 1)... OPT
        # evicts the block with the farthest next use: 2 used at 4, 1 at 3,
        # so evict 2 -> 1 hits, 2 misses.
        assert flags[:3] == [False, False, False]
        assert flags[3] is True
        assert flags[4] is False

    def test_fits_entirely(self):
        trace = [1, 2, 3, 1, 2, 3]
        flags = belady_hit_flags(trace, 3)
        assert flags == [False, False, False, True, True, True]

    @settings(max_examples=60, deadline=None)
    @given(
        trace=st.lists(st.integers(0, 15), min_size=1, max_size=120),
        capacity=st.integers(1, 8),
    )
    def test_opt_never_worse_than_lru(self, trace, capacity):
        opt = sum(belady_hit_flags(trace, capacity))
        lru = lru_hits(trace, capacity)
        assert opt >= lru

    @settings(max_examples=40, deadline=None)
    @given(
        trace=st.lists(st.integers(0, 10), min_size=1, max_size=80),
        capacity=st.integers(1, 6),
    )
    def test_monotone_in_capacity(self, trace, capacity):
        smaller = sum(belady_hit_flags(trace, capacity))
        larger = sum(belady_hit_flags(trace, capacity + 2))
        assert larger >= smaller

    @settings(max_examples=40, deadline=None)
    @given(trace=st.lists(st.integers(0, 20), max_size=100))
    def test_first_touch_always_misses(self, trace):
        flags = belady_hit_flags(trace, 4)
        seen = set()
        for block, flag in zip(trace, flags):
            if block not in seen:
                assert flag is False
                seen.add(block)


class TestAgainstReference:
    """The next-use implementation against the dict-of-lists reference.

    OPT's flags are unique (ties are only among never-reused blocks), so
    the two must agree flag for flag whatever each evicts on a tie.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        trace=st.lists(st.integers(0, 40), max_size=300),
        capacity=st.integers(0, 12),
    )
    def test_flags_match_reference(self, trace, capacity):
        assert belady_hit_flags(trace, capacity) == reference.belady_hit_flags(
            trace, capacity
        )

    @settings(max_examples=50, deadline=None)
    @given(
        trace=st.lists(
            st.integers(0, 6).map(lambda b: b << 40), min_size=1, max_size=200
        ),
        capacity=st.sampled_from([0, 1, 2, 7]),
    )
    def test_sparse_block_ids(self, trace, capacity):
        # Block ids far apart (and beyond 32 bits) are renumbered densely.
        assert belady_hit_flags(trace, capacity) == reference.belady_hit_flags(
            trace, capacity
        )

    def test_array_form(self):
        flags = belady_hits([3, 1, 3, 2, 1, 3], 2)
        assert flags.dtype == bool
        assert flags.tolist() == reference.belady_hit_flags([3, 1, 3, 2, 1, 3], 2)
