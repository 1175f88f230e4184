"""X-cache [Sedaghati et al., ISCA'22] — the state-of-the-art DSA cache.

X-cache tags cached data with the *application key* and stores the leaf
object pointer. A hit short-circuits the entire walk; a miss triggers a full
root-to-leaf walk and inserts the leaf. Per the paper's methodology we model
the ideal variant: hits return on a fast path with no handler cost, and the
miss handler is limited only by DRAM latency.

The organizational flaw METAL exploits (Observation 3, Section 5.1) falls
out naturally: only leaves are cached, leaves are the least-reused and most
numerous level, so deep indexes thrash it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.mem.stats import CacheStats
from repro.obs.tracer import NULL_TRACER
from repro.params import CacheParams


class XCache:
    """Set-associative key-tagged leaf cache with LRU replacement."""

    def __init__(self, params: CacheParams | None = None) -> None:
        self.params = params or CacheParams()
        self.stats = CacheStats()
        self.tracer = NULL_TRACER
        self._num_sets = self.params.sets
        self._sets: list[OrderedDict[Any, Any]] = [OrderedDict() for _ in range(self._num_sets)]

    def attach_obs(self, tracer, registry=None, prefix: str = "xcache") -> None:
        """Wire tracing and bind X-cache statistics into a registry."""
        self.tracer = tracer
        if registry is not None:
            registry.bind_stats(prefix, self.stats, (
                "accesses", "hits", "misses", "insertions", "evictions",
            ))

    def _set_index(self, key: Any) -> int:
        # An integer key picks its set by value: Python's hash of an int
        # wraps modulo 2**61 - 1, which would tie the set of a namespaced
        # key to how many indexes the process built before.
        if type(key) is int:
            return key % self._num_sets
        return hash(key) % self._num_sets

    def lookup(self, key: Any) -> Any | None:
        """Return the cached leaf payload for ``key``, or None on miss."""
        ways = self._sets[self._set_index(key)]
        payload = ways.get(key)
        hit = payload is not None
        if hit:
            ways.move_to_end(key)
        self.stats.record(hit)
        if self.tracer.enabled:
            self.tracer.emit("xcache_probe", key=key, hit=hit)
        return payload

    def insert(self, key: Any, payload: Any) -> None:
        if payload is None:
            raise ValueError("XCache payload must not be None (None means miss)")
        ways = self._sets[self._set_index(key)]
        if key in ways:
            ways[key] = payload
            ways.move_to_end(key)
            return
        if len(ways) >= self.params.ways:
            ways.popitem(last=False)
            self.stats.evictions += 1
            if self.tracer.enabled:
                self.tracer.emit("xcache_evict")
        ways[key] = payload
        self.stats.insertions += 1
        if self.tracer.enabled:
            self.tracer.emit("xcache_insert", key=key)

    def invalidate(self, key: Any) -> bool:
        ways = self._sets[self._set_index(key)]
        return ways.pop(key, None) is not None

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets)
