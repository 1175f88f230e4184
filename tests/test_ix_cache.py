"""Tests for the IX-cache: range match, level priority, sets, eviction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ix_cache import IXCache, block_bits_for
from repro.indexes.base import IndexNode
from repro.params import BLOCK_SIZE, CacheParams


def node(level, lo, hi, keys=None):
    keys = keys if keys is not None else [lo, hi]
    n = IndexNode(level, keys, values=[0] * len(keys), lo=lo, hi=hi)
    n.nbytes = n.byte_size()
    return n


def cache(entries=32, ways=4, **kw) -> IXCache:
    return IXCache(
        CacheParams(capacity_bytes=entries * BLOCK_SIZE, ways=ways), **kw
    )


class TestHitPath:
    def test_miss_on_empty(self):
        assert cache().probe(5) is None

    def test_range_match(self):
        c = cache()
        n = node(2, 10, 20)
        c.insert(n)
        assert c.probe(15) is n
        assert c.probe(10) is n
        assert c.probe(20) is n
        assert c.probe(21) is None

    def test_level_priority_prefers_deeper(self):
        c = cache()
        upper = node(1, 0, 100)
        lower = node(3, 40, 60)
        c.insert(upper)
        c.insert(lower)
        assert c.probe(50) is lower
        assert c.probe(10) is upper

    def test_probe_counts_stats(self):
        c = cache()
        c.insert(node(1, 0, 10))
        c.probe(5)
        c.probe(50)
        assert c.stats.accesses == 2
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_hit_levels_recorded(self):
        c = cache()
        c.insert(node(4, 0, 10))
        c.probe(5)
        assert c.hit_levels[4] == 1

    def test_peek_does_not_count(self):
        c = cache()
        c.insert(node(1, 0, 10))
        c.peek(5)
        assert c.stats.accesses == 0

    def test_peek_breaks_level_ties_in_scan_order(self):
        # Two distinct nodes with one range and level (a rebuilt index's
        # stale copy): both resident, and peek and probe both return
        # the first in scan order.
        c = cache(coalesce=False)
        first = node(3, 0, 10)
        second = node(3, 0, 10)
        c.insert(first)
        c.insert(second)
        assert len(c) == 2
        assert c.peek(5) is first
        assert c.probe(5) is first


class TestSetMapping:
    def test_same_key_block_same_set(self):
        c = cache(key_block_bits=4)
        assert c.set_of(0) == c.set_of(15)

    def test_adjacent_blocks_spread(self):
        c = cache(key_block_bits=4)
        if c.num_sets > 1:
            assert c.set_of(0) != c.set_of(16)

    def test_spanning_node_replicated(self):
        c = cache(key_block_bits=4, replication_limit=4)
        n = node(2, 0, 47)  # spans 3 key blocks
        c.insert(n)
        # Probes across the span should all hit.
        for key in (0, 20, 47):
            assert c.probe(key) is n

    def test_very_wide_node_goes_wide(self):
        c = cache(key_block_bits=4, replication_limit=2)
        n = node(0, 0, 10_000)
        c.insert(n)
        assert len(c._wide) == 1
        assert c.probe(9_999) is n

    def test_fully_associative_mode(self):
        c = cache(associative=False)
        assert c.num_sets == 1
        n = node(1, 0, 1_000_000)
        c.insert(n)
        assert c.probe(500) is n

    def test_block_bits_for_scales(self):
        params = CacheParams(capacity_bytes=8 * 1024)
        small = block_bits_for(1_000, params)
        large = block_bits_for(1_000_000, params)
        assert large > small >= 4


class TestInsertBypass:
    def test_key_focused_insert_keeps_covering_subrange(self):
        c = cache()
        children = [node(3, i * 10, i * 10 + 9) for i in range(30)]
        wide = IndexNode(2, [ch.lo for ch in children[1:]],
                         children=children, lo=0, hi=299)
        wide.nbytes = wide.byte_size()
        c.insert(wide, key=155)
        assert c.peek(155) is wide
        # Sub-ranges the walker never searched are not cached.
        assert c.peek(5) is None

    def test_duplicate_insert_bumps_utility(self):
        c = cache()
        n = node(1, 0, 10)
        c.insert(n)
        before = c.stats.insertions
        c.insert(n)
        assert c.stats.insertions == before  # no new entry

    def test_note_bypass(self):
        c = cache()
        c.note_bypass()
        assert c.stats.bypasses == 1

    def test_sentinel_insert_rejected(self):
        c = cache()
        n = node(1, 0, 10)
        n.lo = float("-inf")
        assert not c.insert(n)


class TestEviction:
    def test_capacity_bounded(self):
        c = cache(entries=8, ways=2)
        for i in range(100):
            c.insert(node(3, i * 100, i * 100 + 5))
        assert len(c) <= 8

    def test_utility_protects_hot(self):
        c = IXCache(
            CacheParams(capacity_bytes=4 * BLOCK_SIZE, ways=2),
            key_block_bits=30,  # everything in one set
            wide_fraction=0.3,
        )
        hot = node(2, 0, 5)
        c.insert(hot)
        for _ in range(20):
            assert c.probe(3) is hot  # saturate utility
        for i in range(1, 6):
            c.insert(node(2, i * 50, i * 50 + 5))
        assert c.peek(3) is hot

    def test_pinned_entries_survive_pressure(self):
        c = IXCache(
            CacheParams(capacity_bytes=4 * BLOCK_SIZE, ways=2),
            key_block_bits=30,
        )
        pinned = node(3, 0, 5)
        c.insert(pinned, life=50)
        for i in range(1, 10):
            c.insert(node(3, i * 50, i * 50 + 5))
        assert c.peek(3) is pinned

    def test_life_decays_under_pressure(self):
        c = IXCache(
            CacheParams(capacity_bytes=4 * BLOCK_SIZE, ways=2),
            key_block_bits=30,
        )
        c.insert(node(3, 0, 5), life=2)
        entry = c.entries()[0]
        start_life = entry.life
        for i in range(1, 12):
            c.insert(node(3, i * 50, i * 50 + 5))
        assert entry.life < start_life or entry not in c.entries()

    def test_fully_pinned_set_still_evicts(self):
        c = IXCache(
            CacheParams(capacity_bytes=2 * BLOCK_SIZE, ways=2),
            key_block_bits=30, wide_fraction=0.4,
        )
        c.insert(node(3, 0, 5), life=100)
        c.insert(node(3, 50, 55), life=100)
        inserted = c.insert(node(3, 100, 105), life=100)
        assert inserted
        assert len(c) <= 2


class TestCoalescingInCache:
    def test_adjacent_small_entries_merge(self):
        c = cache()
        a = node(4, 0, 2, keys=[0, 2])
        b = node(4, 3, 5, keys=[3, 5])
        c.insert(a)
        c.insert(b)
        # Both reachable regardless of whether they merged.
        assert c.probe(1) is a
        assert c.probe(4) is b

    def test_duplicate_wins_over_an_earlier_coalescing_partner(self):
        # P is resident before X but was pinned when X arrived, so X got
        # its own entry. Once P's lease runs out, P becomes a legal
        # Case-3 partner for X; re-inserting X must still hit X's own
        # entry (a duplicate anywhere in the set beats the first partner).
        c = cache(key_block_bits=30)
        p = node(5, 0, 4)
        x = node(5, 6, 10)
        c.insert(p, life=2)
        c.insert(x)
        c.probe(0)
        c.probe(0)
        [p_entry, x_entry] = c.entries()
        assert p_entry.life == 0 and x_entry.utility == 3
        c.insert(x)
        assert c.stats.insertions == 2
        assert [n for _, n in p_entry.parts] == [p]
        assert x_entry.utility == 4


class TestIntrospection:
    def test_occupancy_by_level(self):
        c = cache()
        c.insert(node(1, 0, 10))
        c.insert(node(2, 100, 110))
        occ = c.occupancy_by_level()
        assert occ.get(1) == 1 and occ.get(2) == 1

    def test_clear(self):
        c = cache()
        c.insert(node(1, 0, 10))
        c.clear()
        assert len(c) == 0


@settings(max_examples=30, deadline=None)
@given(
    ranges=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 50), st.integers(1, 6)),
        min_size=1, max_size=40,
    ),
    probes=st.lists(st.integers(0, 11_000), min_size=1, max_size=40),
)
def test_property_probe_result_always_covers_key(ranges, probes):
    c = cache(entries=16, ways=4)
    for lo, width, level in ranges:
        c.insert(node(level, lo, lo + width))
    for key in probes:
        got = c.probe(key)
        if got is not None:
            assert got.lo <= key <= got.hi


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_capacity_never_exceeded(seed):
    import random

    rng = random.Random(seed)
    c = cache(entries=12, ways=3)
    for _ in range(200):
        lo = rng.randrange(100_000)
        c.insert(node(rng.randrange(1, 8), lo, lo + rng.randrange(60)))
        assert len(c) <= 12
