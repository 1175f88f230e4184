"""IXCache against the flat reference model of its fill path.

A hypothesis state machine drives :class:`repro.core.ix_cache.IXCache`
and :class:`tests.reference.ix_cache.RefIXCache` with the same inserts
(single nodes and whole root-to-leaf walks, with and without a search
key and a lease), probes, peeks, range invalidations and clears. One
machine runs per replacement policy: the default utility-RRIP, exact
LRU and Multi-step LRU, each against its reference in
:mod:`tests.reference.policy`. The nodes come
from three bulk-loaded B+trees over one dense key set: two share a key
namespace, as a rebuilt index's stale nodes do (same-level ranges then
overlap and the level tie-break decides), and the third has its own.
Fanout 2 and 3 nodes are small enough to coalesce (Case 3). After every
step the resident state must agree way by way — tag, utility, lease,
size and parts, in order — in every set and in the wide array, and so
must every probe and peek result and the ``CacheStats`` counters. Every
set and the wide array must also list their entries in strictly
ascending ``seq``: the default policy's eviction relies on it to break
utility ties by list order.
"""

import itertools

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.ix_cache import IXCache
from repro.core.policy import make_policy
from repro.indexes.bplustree import BPlusTree
from repro.params import BLOCK_SIZE, NS_STRIDE, CacheParams

from tests.reference.ix_cache import RefIXCache
from tests.reference.policy import ref_policy

MAX_KEY = 400


def _shifted(k: int) -> int:
    return k + NS_STRIDE


#: The key namespaces of the three trees: two share the first.
NAMESPACES = (None, None, _shifted)


def _ns(ns, key: int) -> int:
    return key if ns is None else ns(key)


def _identity(k: int) -> int:
    return k


def _snapshot(entries) -> list[tuple]:
    return [(tuple(e.tag), e.utility, e.life, e.nbytes,
             [(tuple(t), id(n)) for t, n in e.parts]) for e in entries]


LIVES = st.sampled_from([0, 0, 0, 1, 2, 5])

class IXCacheVersusReference(RuleBasedStateMachine):
    #: The replacement policy under test (a ``POLICIES`` name).
    POLICY = "utility_rrip"

    @initialize(
        gaps=st.lists(st.integers(1, 4), min_size=3, max_size=80),
        fanouts=st.tuples(*[st.sampled_from([2, 2, 2, 3, 4, 9])] * 3),
        stale_same_fanout=st.booleans(),
        entries=st.sampled_from([8, 16, 32, 32]),
        ways=st.sampled_from([1, 2, 4, 4]),
        key_block_bits=st.integers(2, 6),
        replication_limit=st.integers(1, 4),
        coalesce=st.booleans(),
        steps=st.integers(1, 5),
    )
    def build(self, gaps, fanouts, stale_same_fanout, entries, ways,
              key_block_bits, replication_limit, coalesce, steps):
        keys = list(itertools.accumulate(gaps))
        #: Keys drawn by the rules fold into the trees' range (plus one
        #: past each end).
        self.span = keys[-1] + 2
        if stale_same_fanout:
            # Identical ranges on distinct node objects: equal tags that
            # are not duplicates, so probes see exact level ties.
            fanouts = (fanouts[0], fanouts[0], fanouts[2])
        self.trees = [
            (BPlusTree.bulk_load([(k, k) for k in keys], fanout=fanout), ns)
            for fanout, ns in zip(fanouts, NAMESPACES)
        ]
        self.nodes = [(node, ns) for tree, ns in self.trees
                      for node in tree.nodes()]
        self.leaves = [sorted((n for n in tree.nodes() if not n.children),
                              key=lambda n: n.lo)
                       for tree, _ in self.trees]
        policy = self.POLICY
        options = {"steps": steps} if policy == "multistep_lru" else {}
        self.cache = IXCache(
            CacheParams(capacity_bytes=entries * BLOCK_SIZE, ways=ways),
            key_block_bits=key_block_bits,
            replication_limit=replication_limit,
            coalesce=coalesce,
            policy=make_policy(policy, **options),
        )
        self.ref = RefIXCache.like(self.cache, ref_policy(policy, steps))
        #: Entries dropped by ``clear``, which counts no evictions.
        self.cleared = 0

    def _insert(self, node, ns, life, key):
        got = self.cache.insert(node, ns, life=life, key=key)
        assert got == self.ref.insert(node, ns or _identity, life, key)

    @rule(pick=st.integers(0, 10_000), life=LIVES,
          with_key=st.booleans(), offset=st.integers(0, MAX_KEY))
    def insert(self, pick, life, with_key, offset):
        node, ns = self.nodes[pick % len(self.nodes)]
        key = None
        if with_key:
            key = _ns(ns, node.lo + offset % (node.hi - node.lo + 1))
        self._insert(node, ns, life, key)

    @rule(tree=st.integers(0, 2), key=st.integers(0, MAX_KEY), life=LIVES,
          with_key=st.booleans())
    def insert_walk(self, tree, key, life, with_key):
        # A miss-path walk: every node root to leaf, upper levels often
        # already resident (the duplicate-insert path).
        index, ns = self.trees[tree]
        key %= self.span
        for node in index.walk(key):
            self._insert(node, ns, life, _ns(ns, key) if with_key else None)

    @rule(tree=st.integers(0, 2), start=st.integers(0, 10_000),
          count=st.integers(1, 8))
    def insert_scan(self, tree, start, count):
        # A range scan: consecutive leaves, each offered with its own low
        # key, as the scan path does (neighbours are Case-3 partners).
        leaves = self.leaves[tree]
        ns = self.trees[tree][1]
        start %= len(leaves)
        for leaf in leaves[start:start + count]:
            self._insert(leaf, ns, 0, _ns(ns, leaf.lo))

    @rule(key=st.integers(0, MAX_KEY), space=st.sampled_from(NAMESPACES[1:]))
    def probe(self, key, space):
        key = _ns(space, key % self.span)
        assert self.cache.probe(key) is self.ref.probe(key)

    @rule(key=st.integers(0, MAX_KEY), space=st.sampled_from(NAMESPACES[1:]))
    def peek(self, key, space):
        key = _ns(space, key % self.span)
        before = (self._state(), repr(self.cache.stats))
        node = self.cache.peek(key)
        assert node is self.ref.peek(key)
        # peek is side-effect free: no statistics, utility or lease moves.
        assert (self._state(), repr(self.cache.stats)) == before

    @rule(lo=st.integers(0, MAX_KEY), width=st.integers(0, 40),
          space=st.sampled_from(NAMESPACES[1:]))
    def invalidate(self, lo, width, space):
        lo = _ns(space, lo % self.span)
        assert (self.cache.invalidate_range(lo, lo + width)
                == self.ref.invalidate_range(lo, lo + width))

    @rule()
    def clear(self):
        self.cleared += len(self.cache)
        self.cache.clear()
        self.ref.clear()

    def _state(self):
        return ([_snapshot(ways) for ways in self.cache._sets],
                _snapshot(self.cache._wide))

    @invariant()
    def agrees_with_reference(self):
        sets, wide = self._state()
        assert sets == [_snapshot(ways) for ways in self.ref.sets]
        assert wide == _snapshot(self.ref.wide)
        stats = self.cache.stats
        ref = self.ref.stats
        assert (stats.accesses, stats.hits, stats.misses, stats.insertions,
                stats.evictions, stats.bypasses) == (
            ref.accesses, ref.hits, ref.misses, ref.insertions,
            ref.evictions, ref.bypasses)

    @invariant()
    def capacity_and_conservation(self):
        cache = self.cache
        assert all(len(ways) <= cache.ways for ways in cache._sets)
        assert len(cache._wide) <= cache.wide_capacity
        # Every insertion adds one entry except a Case-3 merge into one.
        stats = cache.stats
        assert (stats.insertions - self.ref.coalesced - stats.evictions
                - self.cleared) == len(cache)

    @invariant()
    def sets_in_seq_order(self):
        for ways in [*self.cache._sets, self.cache._wide]:
            seqs = [entry.seq for entry in ways]
            assert all(a < b for a, b in zip(seqs, seqs[1:])), seqs


class LRUVersusReference(IXCacheVersusReference):
    POLICY = "lru"


class MultiStepLRUVersusReference(IXCacheVersusReference):
    POLICY = "multistep_lru"


for _machine in (IXCacheVersusReference, LRUVersusReference,
                 MultiStepLRUVersusReference):
    _machine.TestCase.settings = settings(
        max_examples=80, stateful_step_count=50, deadline=None
    )
TestIXCacheVersusReference = IXCacheVersusReference.TestCase
TestLRUVersusReference = LRUVersusReference.TestCase
TestMultiStepLRUVersusReference = MultiStepLRUVersusReference.TestCase
