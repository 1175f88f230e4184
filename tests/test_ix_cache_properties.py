"""Property-based tests (hypothesis) for IX-cache range-tag invariants.

The IX-cache's correctness rests on three structural properties that are
easy to break while optimizing packing/eviction and hard to pin down with
example-based tests:

* resident ranges at the same level never overlap (for distinct nodes),
* ``probe(key)`` always returns the deepest resident node covering ``key``,
* eviction/invalidation never leaves a dangling or malformed entry in the
  utility table (every entry keeps live parts, sane counters, and
  capacity bounds).

Nodes come from real bulk-loaded B+trees so the inserted ranges have the
disjointness structure the hardware would see.
"""

from hypothesis import given, settings, strategies as st

from repro.core.ix_cache import IXCache
from repro.core.policy import UTILITY_MAX
from repro.indexes.bplustree import BPlusTree
from repro.params import BLOCK_SIZE, CacheParams

#: Small geometry so hypothesis exercises eviction and the wide array.
TINY = CacheParams(capacity_bytes=16 * BLOCK_SIZE, ways=2)


def build_tree(keys: list[int], fanout: int) -> BPlusTree:
    return BPlusTree.bulk_load([(k, k) for k in keys], fanout=fanout)


def tree_and_cache(keys, fanout, key_block_bits=4):
    tree = build_tree(sorted(set(keys)), fanout)
    cache = IXCache(TINY, key_block_bits=key_block_bits)
    return tree, cache


def walk_and_insert(tree: BPlusTree, cache: IXCache, key: int) -> None:
    for node in tree.walk(key):
        cache.insert(node)


def all_parts(cache: IXCache):
    """(location, entry, part_tag, node) for every resident constituent."""
    for set_idx, ways in enumerate(cache._sets):
        for entry in ways:
            for tag, node in entry.parts:
                yield ("set", set_idx), entry, tag, node
    for entry in cache._wide:
        for tag, node in entry.parts:
            yield ("wide", 0), entry, tag, node


def check_structural_invariants(cache: IXCache, live_nodes: set[int]) -> None:
    """The 'no dangling pointers' contract after arbitrary churn."""
    for ways in cache._sets:
        assert len(ways) <= cache.ways
    assert len(cache._wide) <= max(cache.wide_capacity, 0)
    for _, entry, tag, node in all_parts(cache):
        assert entry.parts, "entry with no constituent nodes"
        assert 0 <= entry.utility <= UTILITY_MAX
        assert entry.life >= 0
        # Entry tag must cover every part (coalescing widens, never shrinks).
        assert entry.tag.lo <= tag.lo <= tag.hi <= entry.tag.hi
        # Every cached node pointer must refer to a live index node.
        assert id(node) in live_nodes, "dangling node pointer after eviction"


keys_strategy = st.lists(
    st.integers(min_value=0, max_value=5000), min_size=8, max_size=120,
    unique=True,
)


class TestSameLevelDisjointness:
    @settings(max_examples=40, deadline=None)
    @given(keys=keys_strategy, fanout=st.integers(2, 8),
           probes=st.lists(st.integers(0, 5000), max_size=40))
    def test_resident_same_level_ranges_never_overlap(self, keys, fanout, probes):
        tree, cache = tree_and_cache(keys, fanout)
        for key in sorted(set(keys)) + probes:
            walk_and_insert(tree, cache, key)
        by_location: dict = {}
        for location, _, tag, node in all_parts(cache):
            by_location.setdefault(location, []).append((tag, node))
        for parts in by_location.values():
            for i, (tag_a, node_a) in enumerate(parts):
                for tag_b, node_b in parts[i + 1:]:
                    if node_a is node_b or tag_a.level != tag_b.level:
                        continue
                    assert not tag_a.overlaps(tag_b), (
                        f"distinct level-{tag_a.level} nodes overlap: "
                        f"{tag_a} vs {tag_b}"
                    )


class TestProbeDeepest:
    @settings(max_examples=40, deadline=None)
    @given(keys=keys_strategy, fanout=st.integers(2, 8),
           probes=st.lists(st.integers(0, 5000), min_size=1, max_size=40))
    def test_probe_returns_deepest_resident_covering_node(
        self, keys, fanout, probes
    ):
        tree, cache = tree_and_cache(keys, fanout)
        for key in sorted(set(keys)):
            walk_and_insert(tree, cache, key)
        for key in probes:
            # Brute-force reference over exactly the entries a probe can
            # see: the key's set plus the wide array.
            candidates = [
                (tag.level, node)
                for entry in cache._sets[cache.set_of(key)] + cache._wide
                for tag, node in entry.parts
                if tag.matches(key)
            ]
            result = cache.probe(key)
            if not candidates:
                assert result is None
                continue
            deepest = max(level for level, _ in candidates)
            assert result is not None
            deepest_nodes = {id(n) for lvl, n in candidates if lvl == deepest}
            assert id(result) in deepest_nodes, (
                f"probe({key}) returned a shallower node than resident"
            )
            assert result.covers(key)

    @settings(max_examples=30, deadline=None)
    @given(keys=keys_strategy, fanout=st.integers(2, 8),
           probes=st.lists(st.integers(0, 5000), min_size=1, max_size=20))
    def test_probe_agrees_with_peek(self, keys, fanout, probes):
        # peek returns probe's node on the same state and moves no
        # statistics, utility or lease.
        tree, cache = tree_and_cache(keys, fanout)
        for key in sorted(set(keys)):
            walk_and_insert(tree, cache, key)

        def state():
            return (repr(cache.stats), dict(cache.hit_levels),
                    [(e.seq, e.utility, e.life) for e in cache.entries()])

        for key in probes:
            before = state()
            peeked = cache.peek(key)
            assert state() == before, "peek moved stats, utility or lease"
            assert cache.probe(key) is peeked


class TestEvictionIntegrity:
    @settings(max_examples=40, deadline=None)
    @given(keys=keys_strategy, fanout=st.integers(2, 8),
           churn=st.lists(st.integers(0, 5000), min_size=5, max_size=80),
           lives=st.lists(st.integers(0, 4), min_size=5, max_size=80))
    def test_no_dangling_entries_after_churn(self, keys, fanout, churn, lives):
        tree, cache = tree_and_cache(keys, fanout)
        live_nodes = {id(node) for node in tree.nodes()}
        for key, life in zip(churn, lives + [0] * len(churn)):
            path = tree.walk(key)
            for node in path:
                cache.insert(node, life=life)
            cache.probe(key)
            check_structural_invariants(cache, live_nodes)
        stats = cache.stats
        assert stats.accesses == stats.hits + stats.misses

    @settings(max_examples=30, deadline=None)
    @given(keys=keys_strategy, fanout=st.integers(2, 8),
           lo=st.integers(0, 5000), width=st.integers(0, 2500))
    def test_invalidate_range_removes_every_overlap(self, keys, fanout, lo, width):
        tree, cache = tree_and_cache(keys, fanout)
        for key in sorted(set(keys)):
            walk_and_insert(tree, cache, key)
        hi = lo + width
        before = len(cache)
        removed = cache.invalidate_range(lo, hi)
        assert removed == before - len(cache)
        for _, _, tag, _ in all_parts(cache):
            pass  # structure still iterable
        # No surviving *entry* may overlap the dirty interval.
        for ways in cache._sets:
            for entry in ways:
                assert entry.tag.hi < lo or entry.tag.lo > hi
        for entry in cache._wide:
            assert entry.tag.hi < lo or entry.tag.lo > hi
        live_nodes = {id(node) for node in tree.nodes()}
        check_structural_invariants(cache, live_nodes)
