"""Set-associative address-tagged cache with LRU replacement.

This is the conventional idiom the paper's Challenge 1-3 critique: tags are
block addresses, so a walk must still traverse root-to-leaf (each node's
address is only known from its parent), and every touched node competes for
capacity.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.mem.stats import CacheStats
from repro.obs.tracer import NULL_TRACER
from repro.params import CacheParams


class AddressCache:
    """LRU set-associative cache keyed by 64B block address."""

    def __init__(self, params: CacheParams | None = None) -> None:
        self.params = params or CacheParams()
        self.stats = CacheStats()
        self.tracer = NULL_TRACER
        if self.params.ways <= 0:
            raise ValueError("ways must be positive")
        self._num_sets = self.params.sets
        #: One ordered dict per set, least recent first: block ``b`` maps
        #: to set ``b % len(sets)``. ``AddressCacheMemSys`` runs its LRU
        #: steps on these directly, as :meth:`lookup` and :meth:`insert` do.
        self.sets: list[OrderedDict[int, None]] = [OrderedDict() for _ in range(self._num_sets)]

    def attach_obs(self, tracer, registry=None, prefix: str = "addr") -> None:
        """Wire tracing and bind address-cache statistics into a registry."""
        self.tracer = tracer
        if registry is not None:
            registry.bind_stats(prefix, self.stats, (
                "accesses", "hits", "misses", "insertions", "evictions",
            ))

    def _set_index(self, block: int) -> int:
        return block % self._num_sets

    def lookup(self, address: int) -> bool:
        """Probe the cache; updates LRU order and statistics."""
        block = address // self.params.block_bytes
        ways = self.sets[self._set_index(block)]
        hit = block in ways
        if hit:
            ways.move_to_end(block)
        self.stats.record(hit)
        if self.tracer.enabled:
            self.tracer.emit("addr_probe", block=block, hit=hit)
        return hit

    def contains(self, address: int) -> bool:
        """Stat-free presence check (no LRU update)."""
        block = address // self.params.block_bytes
        return block in self.sets[self._set_index(block)]

    def insert(self, address: int) -> None:
        block = address // self.params.block_bytes
        ways = self.sets[self._set_index(block)]
        if block in ways:
            ways.move_to_end(block)
            return
        if len(ways) >= self.params.ways:
            ways.popitem(last=False)
            self.stats.evictions += 1
        ways[block] = None
        self.stats.insertions += 1

    def access(self, address: int, nbytes: int = 0) -> bool:
        """Lookup and fill-on-miss for every block an object spans.

        Returns True only if *all* spanned blocks hit (a multi-block index
        node is only short-circuited past DRAM if it is fully resident).
        """
        span = max(1, -(-max(nbytes, 1) // self.params.block_bytes))
        all_hit = True
        for i in range(span):
            addr = address + i * self.params.block_bytes
            if not self.lookup(addr):
                all_hit = False
                self.insert(addr)
        return all_hit

    def __len__(self) -> int:
        return sum(len(ways) for ways in self.sets)
