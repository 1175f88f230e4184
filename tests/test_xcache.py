"""Tests for the X-cache (key-tagged leaf cache)."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.bench.runner import run_workload
from repro.indexes import base as index_base
from repro.mem.xcache import XCache
from repro.params import BLOCK_SIZE, NS_STRIDE, CacheParams
from repro.workloads.suite import build_workload

GOLDEN_PATH = Path(__file__).parent / "golden_policy_baseline.json"


def small(entries=8, ways=2) -> XCache:
    return XCache(CacheParams(capacity_bytes=entries * BLOCK_SIZE, ways=ways))


class TestBasics:
    def test_miss_returns_none(self):
        assert small().lookup("k") is None

    def test_insert_then_hit(self):
        cache = small()
        cache.insert("k", "leaf")
        assert cache.lookup("k") == "leaf"

    def test_exact_key_match_only(self):
        cache = small()
        cache.insert(10, "leaf")
        assert cache.lookup(11) is None  # adjacent key in same leaf: miss

    def test_none_payload_rejected(self):
        with pytest.raises(ValueError):
            small().insert("k", None)

    def test_overwrite(self):
        cache = small()
        cache.insert("k", "a")
        cache.insert("k", "b")
        assert cache.lookup("k") == "b"
        assert len(cache) == 1

    def test_invalidate(self):
        cache = small()
        cache.insert("k", "v")
        assert cache.invalidate("k")
        assert not cache.invalidate("k")
        assert cache.lookup("k") is None


class TestReplacement:
    def test_lru_within_set(self):
        cache = XCache(CacheParams(capacity_bytes=2 * BLOCK_SIZE, ways=2))
        # Single set (2 entries): third insert evicts the LRU one.
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.lookup("a")
        cache.insert("c", 3)
        assert cache.lookup("a") == 1
        assert cache.lookup("b") is None

    def test_eviction_counted(self):
        cache = XCache(CacheParams(capacity_bytes=BLOCK_SIZE, ways=1))
        cache.insert("a", 1)
        cache.insert("b", 2)
        # Both may land in the one set; at least one eviction if so.
        assert len(cache) <= 1 or cache.stats.evictions == 0


class TestStats:
    def test_hit_miss_counting(self):
        cache = small()
        cache.lookup("x")
        cache.insert("x", 1)
        cache.lookup("x")
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


class TestNamespacedKeys:
    """Sets come from an integer key's value, not its hash.

    Namespaced keys are ``index_id * 2**52 + key``. Python's hash of an
    int wraps modulo ``2**61 - 1``, so hashed sets would shift once the
    process-wide index-id counter passes 512, and differently for two
    indexes on either side of a multiple of 512.
    """

    def test_integer_keys_pick_their_set_by_value(self):
        cache = small(entries=8, ways=2)
        for index_id in (0, 511, 512, 1023, 1025):
            key = index_id * NS_STRIDE + 77
            assert cache._set_index(key) == key % cache._num_sets
            cache.insert(key, "leaf")
            assert cache.lookup(key) == "leaf"

    def test_join_digest_whatever_the_index_id_counter(self, monkeypatch):
        with open(GOLDEN_PATH) as f:
            golden = json.load(f)["digests"]["0.01/join/object/xcache"]
        current = next(index_base._index_ids)
        # Join's two indexes take ids start + 1 and start + 3: advance
        # the counter until a multiple of 512 falls between them.
        start = current + (510 - current) % 512
        monkeypatch.setattr(index_base, "_index_ids", itertools.count(start))
        workload = build_workload("join", scale=0.01)
        ids = sorted({request.index.index_id for request in workload.requests})
        assert len(ids) == 2 and ids[0] // 512 != ids[1] // 512
        result = run_workload(workload, "xcache")
        canon = json.dumps(result.to_dict(), sort_keys=True)
        assert hashlib.sha256(canon.encode()).hexdigest() == golden
