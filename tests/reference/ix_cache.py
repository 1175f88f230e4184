"""Reference IX-cache: the bounded fill path written from its definitions.

A flat model of :class:`repro.core.ix_cache.IXCache`, for differential
tests. Every rule is spelled out once, in the plainest form, with no
inlining:

* Match (Fig. 6): an entry matches a key when ``lo <= key <= hi``. Among
  the matching entries that hold a part covering the key, the one with
  the highest level wins (closest to the leaf); ties go to the first in
  scan order, the key's set before the wide array.
* Set mapping (Fig. 8): keys ``k`` with equal ``k >> b`` form one key
  block, and block ``n`` maps to set ``n % sets``. An entry spanning more
  than ``replication_limit`` blocks goes to the wide array; otherwise it
  is clipped to each block it spans and placed in that block's set.
* Insert: a node is packed into one tag per block (Fig. 5, Case 1 and
  Case 2, :func:`repro.core.packing.pack_node`). When a search key is
  given and the node packs into several tags, only the tags covering
  the key are inserted, if any do.
* Placement in a set: a resident entry with the same tag holding the
  same node absorbs the insert (one utility hit, the longer lease).
  Otherwise an unpinned insert merges into the first entry it may
  coalesce with (Case 3: same level, same namespace, disjoint ranges, a
  gap no wider than the two ranges together, and the bytes fit one
  block). Otherwise a new entry is placed, after one eviction if the set
  is full. The wide array has no coalescing, and a duplicate there keeps
  its lease.
* Replacement: :mod:`tests.reference.policy` (utility-RRIP by default,
  exact LRU, Multi-step LRU). A new entry is one insert touch, and a
  probe hit or an absorbed duplicate one hit.
* ``invalidate_range`` drops every entry overlapping the range and counts
  each as an eviction; ``clear`` drops every entry and the policy's
  cross-entry state, and counts nothing.

No tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.packing import pack_node
from repro.params import BLOCK_SIZE, NS_STRIDE

from tests.reference.policy import INSERT_UTILITY, RefUtilityRRIP


@dataclass(eq=False)
class RefEntry:
    lo: int
    hi: int
    level: int
    parts: list[tuple[tuple[int, int, int], Any]]
    nbytes: int
    life: int
    seq: int
    utility: int = INSERT_UTILITY

    @property
    def tag(self) -> tuple[int, int, int]:
        return (self.lo, self.hi, self.level)


@dataclass
class RefStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bypasses: int = 0


@dataclass
class RefIXCache:
    num_sets: int
    ways: int
    wide_capacity: int
    key_block_bits: int
    replication_limit: int
    coalesce: bool = True
    block_bytes: int = BLOCK_SIZE
    policy: Any = field(default_factory=RefUtilityRRIP)
    stats: RefStats = field(default_factory=RefStats)
    #: Inserts merged into an existing entry (Case 3): each counts as an
    #: insertion but adds no entry.
    coalesced: int = 0

    def __post_init__(self) -> None:
        self.sets: list[list[RefEntry]] = [[] for _ in range(self.num_sets)]
        self.wide: list[RefEntry] = []
        self._seq = 0

    @classmethod
    def like(cls, cache: Any, policy: Any = None) -> "RefIXCache":
        """A reference with the same geometry as an ``IXCache``."""
        return cls(num_sets=cache.num_sets, ways=cache.ways,
                   wide_capacity=cache.wide_capacity,
                   key_block_bits=cache.key_block_bits,
                   replication_limit=cache.replication_limit,
                   coalesce=cache.coalesce,
                   block_bytes=cache.params.block_bytes,
                   policy=policy or RefUtilityRRIP())

    # -- match ----------------------------------------------------------

    def _lookup(self, key: int) -> tuple[RefEntry | None, Any]:
        best: tuple[RefEntry | None, Any] = (None, None)
        scan = self.sets[(key >> self.key_block_bits) % self.num_sets] + self.wide
        for entry in scan:
            if not entry.lo <= key <= entry.hi:
                continue
            node = next((n for (lo, hi, _), n in entry.parts if lo <= key <= hi),
                        None)
            if node is None:
                continue
            if best[0] is None or entry.level > best[0].level:
                best = (entry, node)
        return best

    def peek(self, key: int) -> Any:
        return self._lookup(key)[1]

    def probe(self, key: int) -> Any:
        entry, node = self._lookup(key)
        self.stats.accesses += 1
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.policy.on_hit(entry)
        entry.life = max(0, entry.life - 1)
        return node

    # -- fill -----------------------------------------------------------

    def insert(self, node: Any, ns: Callable[[int], int], life: int = 0,
               key: int | None = None) -> bool:
        packed = pack_node(node, ns, self.block_bytes)
        if key is not None and len(packed) > 1:
            covering = [(t, n) for t, n in packed if t.lo <= key <= t.hi]
            if covering:
                packed = covering
        if not packed:
            return False
        results = [self._place(tuple(t), n, life) for t, n in packed]
        if not any(results):
            self.stats.bypasses += 1
        return any(results)

    def _place(self, tag: tuple[int, int, int], node: Any, life: int) -> bool:
        lo, hi, level = tag
        b = self.key_block_bits
        first, last = lo >> b, hi >> b
        if last - first + 1 > self.replication_limit:
            return self._place_wide(tag, node, life)
        placed = False
        for block in range(first, last + 1):
            block_lo = block << b
            block_hi = block_lo + (1 << b) - 1
            clipped = (max(lo, block_lo), min(hi, block_hi), level)
            if self._place_in_set(self.sets[block % self.num_sets], clipped,
                                  node, life):
                placed = True
        return placed

    def _new_entry(self, tag, node, life) -> RefEntry:
        self._seq += 1
        entry = RefEntry(tag[0], tag[1], tag[2], [(tag, node)],
                         min(node.byte_size(), BLOCK_SIZE), life, self._seq)
        self.policy.on_insert(entry)
        return entry

    def _duplicate(self, entries, tag, node) -> RefEntry | None:
        for entry in entries:
            if entry.tag == tuple(tag) and any(n is node for _, n in entry.parts):
                return entry
        return None

    def _may_coalesce(self, entry: RefEntry, tag, node_bytes: int) -> bool:
        lo, hi, level = tag
        return (entry.life == 0
                and entry.level == level
                and entry.nbytes + node_bytes <= self.block_bytes
                and entry.lo // NS_STRIDE == lo // NS_STRIDE
                and not (entry.lo <= hi and lo <= entry.hi)
                and max(entry.lo, lo) - min(entry.hi, hi) - 1
                <= (entry.hi - entry.lo + 1) + (hi - lo + 1))

    def _place_in_set(self, ways: list[RefEntry], tag, node, life) -> bool:
        dup = self._duplicate(ways, tag, node)
        if dup is not None:
            self.policy.on_hit(dup)
            dup.life = max(dup.life, life)
            return True
        node_bytes = min(node.byte_size(), self.block_bytes)
        if self.coalesce and life == 0:
            for entry in ways:
                if self._may_coalesce(entry, tag, node_bytes):
                    entry.parts.append((tag, node))
                    entry.lo = min(entry.lo, tag[0])
                    entry.hi = max(entry.hi, tag[1])
                    entry.nbytes += node_bytes
                    self.stats.insertions += 1
                    self.coalesced += 1
                    return True
        if len(ways) >= self.ways:
            self._evict(ways)
        ways.append(self._new_entry(tag, node, life))
        self.stats.insertions += 1
        return True

    def _place_wide(self, tag, node, life) -> bool:
        dup = self._duplicate(self.wide, tag, node)
        if dup is not None:
            self.policy.on_hit(dup)
            return True
        if len(self.wide) >= self.wide_capacity:
            self._evict(self.wide)
        self.wide.append(self._new_entry(tag, node, life))
        self.stats.insertions += 1
        return True

    def _evict(self, entries: list[RefEntry]) -> None:
        self.policy.evict(entries)
        self.stats.evictions += 1

    # -- invalidation ---------------------------------------------------

    def invalidate_range(self, lo: int, hi: int) -> int:
        removed = 0
        for entries in self.sets + [self.wide]:
            keep = [e for e in entries if not (e.lo <= hi and lo <= e.hi)]
            removed += len(entries) - len(keep)
            entries[:] = keep
        self.stats.evictions += removed
        return removed

    def clear(self) -> None:
        self.sets = [[] for _ in range(self.num_sets)]
        self.wide = []
        self.policy.clear()

    def __len__(self) -> int:
        return sum(len(ways) for ways in self.sets) + len(self.wide)
