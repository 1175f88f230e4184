"""IX-cache — a cache that uses key ranges as tags (Section 3.1).

Organization (Fig. 6 / Fig. 8):

* Every entry is one 64B block tagged with a :class:`RangeTag` ([Lo, Hi] +
  level). A probe by key matches entries with ``Lo <= key <= Hi``; ties
  between covering entries are broken by the level field, preferring the
  node *closest to the leaf* (maximal short-circuit).
* Set-associativity divides the key space into 2^b-wide key blocks; an
  index node maps to the set(s) of the key blocks it spans. Nodes spanning
  a few blocks are split into per-set sub-range entries (Case-2 packing in
  key space); nodes wider than the replication limit (near-root nodes) go
  to a small fully-associative wide-entry array.
* Replacement uses 4-bit saturating utility counters ("we track utility by
  using 4-bit saturating counters (one per entry)", Section 5) plus an
  optional lifetime pin set by the Node descriptor: pinned entries are not
  evictable until their remaining accesses are used up.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any

from repro.core.packing import pack_sized
from repro.core.policy import UTILITY_INSERT, ReplacementPolicy, make_policy
from repro.core.range_tag import RangeTag
from repro.indexes.base import IndexNode
from repro.mem.stats import CacheStats
from repro.obs.tracer import NULL_TRACER
from repro.params import BLOCK_SIZE, NS_STRIDE, CacheParams

_entry_seq = itertools.count()


def _identity(k: int) -> int:
    return k


def block_bits_for(key_universe: int, params: CacheParams | None = None,
                   wide_fraction: float = 0.125) -> int:
    """Key-block bits that spread a key universe across the cache's sets.

    Fig. 8 fixes b = 4 for illustration; a deployment sizes the key block
    so one block of keys maps to roughly one set (too-small blocks make
    mid-level nodes span many sets and replicate; too-large blocks cause
    the set conflicts the paper warns about).
    """
    params = params or CacheParams()
    entries = max(1, params.entries)
    sa_entries = max(1, entries - max(1, int(entries * wide_fraction)))
    sets = max(1, sa_entries // params.ways)
    per_set = max(1, key_universe // sets)
    return max(4, per_set.bit_length() - 1)


class IXEntry:
    """One cache block: a match tag and the node(s) packed behind it.

    The tag is kept as slots: ``lo``, ``hi`` and ``level``, plus ``ns``,
    the namespace id ``lo // NS_STRIDE`` (an index's keys, see
    :func:`repro.sim.memsys.namespace_fn`), which coalescing compares.
    ``utility`` is the paper's 4-bit saturating counter; ``stamp`` is a
    policy-defined scratch word (LRU tick, hit count — see
    :mod:`repro.core.policy`) that the default policy never touches.
    """

    __slots__ = ("lo", "hi", "level", "ns", "parts", "utility", "life",
                 "nbytes", "seq", "stamp")

    def __init__(self, tag: RangeTag, parts: list[tuple[RangeTag, IndexNode]],
                 life: int, nbytes: int):
        self.lo, self.hi, self.level = tag
        self.ns = self.lo // NS_STRIDE
        self.parts = parts
        self.utility = UTILITY_INSERT
        self.life = life
        #: Bytes of the packed parts, each capped at one block.
        self.nbytes = nbytes
        self.seq = next(_entry_seq)
        self.stamp = 0

    @property
    def tag(self) -> RangeTag:
        return RangeTag(self.lo, self.hi, self.level)

    @property
    def pinned(self) -> bool:
        return self.life > 0


class IXCache:
    """Range-tagged cache with key-block set-associativity.

    ``key_block_bits`` is ``b`` of Fig. 8 (keys 0..2^b-1 form block 0).
    ``replication_limit`` caps how many sets a node is replicated across
    before falling back to the wide-entry array; ``wide_fraction`` is the
    share of capacity reserved for that array.
    """

    def __init__(
        self,
        params: CacheParams | None = None,
        key_block_bits: int = 4,
        replication_limit: int = 4,
        wide_fraction: float = 0.125,
        associative: bool = True,
        coalesce: bool = True,
        policy: "str | ReplacementPolicy" = "utility_rrip",
    ) -> None:
        self.params = params or CacheParams()
        self.stats = CacheStats()
        self.tracer = NULL_TRACER
        #: Replacement policy (repro.core.policy): victim selection and
        #: per-entry metadata maintenance. The default reproduces the
        #: paper's utility scheme; every policy runs through the same hooks.
        self.policy = make_policy(policy)
        self.key_block_bits = key_block_bits
        self.replication_limit = replication_limit
        self.associative = associative
        #: Case-3 packing (Fig. 5): merge adjacent small same-level nodes
        #: into one super-range entry. Toggleable for the ablation bench.
        self.coalesce = coalesce
        total_entries = max(1, self.params.entries)
        if associative:
            self.wide_capacity = max(1, int(total_entries * wide_fraction))
            sa_entries = max(1, total_entries - self.wide_capacity)
            self.num_sets = max(1, sa_entries // self.params.ways)
            self.ways = self.params.ways
        else:
            # Fully-associative mode: one set holding everything.
            self.wide_capacity = 0
            self.num_sets = 1
            self.ways = total_entries
        self._sets: list[list[IXEntry]] = [[] for _ in range(self.num_sets)]
        self._wide: list[IXEntry] = []
        #: Histogram of the levels at which probes hit (Fig. 21 inputs).
        self.hit_levels: Counter[int] = Counter()

    def attach_obs(self, tracer, registry=None, prefix: str = "ix") -> None:
        """Wire tracing and bind IX-cache statistics into a registry.

        Event kinds pair 1:1 with :class:`CacheStats` increments so the
        tracer's per-kind counts reconcile exactly with the aggregates:
        ``ix_probe`` per access, ``ix_insert`` per insertion, ``ix_evict``
        per eviction, ``ix_bypass`` per bypass.
        """
        self.tracer = tracer
        if registry is not None:
            registry.bind_stats(prefix, self.stats, (
                "accesses", "hits", "misses",
                "insertions", "evictions", "bypasses",
            ))
            registry.bind(f"{prefix}.resident_entries", lambda: len(self))
            registry.bind(f"{prefix}.occupancy_fraction",
                          lambda: self.occupancy_fraction)

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #

    def set_of(self, key: int) -> int:
        return (key >> self.key_block_bits) % self.num_sets

    # ------------------------------------------------------------------ #
    # Hit path
    # ------------------------------------------------------------------ #

    def _match(self, key: int) -> tuple[IXEntry | None, IndexNode | None]:
        """Match stage + tie-break + child select (Fig. 6).

        One scan of the key's set, then the wide array: the entry whose
        tag covers ``key`` and which packs a part covering it, preferring
        the highest level (the node closest to the leaf) and, among equal
        levels, the first in scan order. Returns ``(None, None)`` on a
        miss. The tag and part matches are inlined: every probe runs this.
        """
        best_level = -1
        best_entry: IXEntry | None = None
        best: IndexNode | None = None
        for ways in (self._sets[(key >> self.key_block_bits) % self.num_sets],
                     self._wide):
            for entry in ways:
                if entry.lo <= key <= entry.hi and (
                        best is None or entry.level > best_level):
                    for part_tag, node in entry.parts:
                        if part_tag.lo <= key <= part_tag.hi:
                            best_level = entry.level
                            best_entry = entry
                            best = node
                            break
        return best_entry, best

    def probe(self, key: int) -> IndexNode | None:
        """Look ``key`` up and account for it.

        Returns the deepest cached node covering ``key`` (walk restarts
        from it), or None on a miss. A hit promotes its entry through the
        replacement policy, spends one access of its lifetime lease and
        counts toward :attr:`hit_levels`.
        """
        entry, node = self._match(key)
        self.stats.record(entry is not None)
        if entry is not None:
            self.policy.on_hit(entry)
            if entry.life > 0:
                entry.life -= 1
            self.hit_levels[entry.level] += 1
        if self.tracer.enabled:
            self.tracer.emit("ix_probe", key=key, hit=entry is not None)
            if entry is not None:
                self.tracer.emit("ix_hit", key=key, level=entry.level)
        return node

    def peek(self, key: int) -> IndexNode | None:
        """:meth:`probe`'s node without touching statistics or utility."""
        return self._match(key)[1]

    # ------------------------------------------------------------------ #
    # Insert / bypass
    # ------------------------------------------------------------------ #

    def plan(self, node: IndexNode, ns: Any = None) -> list[tuple]:
        """Where ``node``'s entries go: its placement plan.

        One ``(tag, part, size, slots)`` per packed part (Fig. 5,
        :func:`~repro.core.packing.pack_sized`), where ``slots`` lists
        ``(set, tag)`` placements: the part's own tag in the one set of
        its key block, a Case-2 clip of it in the set of each key block
        it spans, or set ``-1``, the wide array, when it spans more than
        ``replication_limit`` blocks. ``ns`` maps raw keys to namespaced
        keys (identity when None). The plan is pure in the node's
        geometry and the cache's, so a caller over a read-only index
        may keep it and hand it back to :meth:`insert`.
        """
        bits = self.key_block_bits
        plan = []
        for tag, part_node, size in pack_sized(node, ns or _identity,
                                               self.params.block_bytes):
            first = tag.lo >> bits
            last = tag.hi >> bits
            if not self.associative:
                slots: tuple = ((0, tag),)
            elif last - first + 1 > self.replication_limit:
                slots = ((-1, tag),)
            elif first == last:
                # Single key block: the clip is the identity (the tag
                # lies wholly inside the block), so place it unclipped.
                slots = ((first % self.num_sets, tag),)
            else:
                slots = tuple(
                    (block % self.num_sets,
                     tag.clip(block << bits, ((block + 1) << bits) - 1))
                    for block in range(first, last + 1)
                )
            plan.append((tag, part_node, size, slots))
        return plan

    def insert(
        self, node: IndexNode, ns: Any = None, life: int = 0,
        key: int | None = None, plan: list[tuple] | None = None,
    ) -> bool:
        """Insert an index node; returns False if wholly rejected.

        ``ns`` maps raw keys to namespaced keys (identity when None).
        The node is packed per Fig. 5, then each entry is placed in the
        set(s) its range spans (or the wide array), as :meth:`plan`
        lays out. When ``key`` (already namespaced) is given and the
        node splits into several sub-range entries, only the entry the
        walk actually searched — the one covering ``key`` — is cached;
        the walker never read the others. ``plan`` lets a caller supply
        the node's kept :meth:`plan` (read-only indexes only); the list
        is never mutated here.
        """
        if plan is None:
            plan = self.plan(node, ns)
        if key is not None and len(plan) > 1:
            covering = [part for part in plan
                        if part[0].lo <= key <= part[0].hi]
            if covering:
                plan = covering
        if not plan:
            return False
        placed_any = False
        for _, part_node, size, slots in plan:
            for set_idx, tag in slots:
                if set_idx < 0:
                    placed = self._place_wide(tag, part_node, life, size)
                else:
                    placed = self._place_in_set(set_idx, tag, part_node,
                                                life, size)
                if placed:
                    placed_any = True
        if not placed_any:
            self.stats.bypasses += 1
            if self.tracer.enabled:
                self.tracer.emit("ix_bypass", level=node.level, reason="rejected")
        return placed_any

    def note_bypass(self) -> None:
        """Record a pattern-directed bypass (node deliberately not cached)."""
        self.stats.bypasses += 1
        if self.tracer.enabled:
            self.tracer.emit("ix_bypass", reason="pattern")

    def _place_in_set(self, set_idx: int, tag: RangeTag, node: IndexNode,
                      life: int, size: int) -> bool:
        """Place one entry in a set; ``size`` is ``node.byte_size()``.

        One pass over the ways finds both a duplicate (same tag, same
        node) and the first legal Case-3 coalescing partner; a duplicate
        anywhere in the set wins over the partner.
        """
        ways = self._sets[set_idx]
        block_bytes = self.params.block_bytes
        node_bytes = size if size < block_bytes else block_bytes
        tag_lo, tag_hi, tag_level = tag
        # Case-3 coalescing (Fig. 5): merge with an unpinned entry of the
        # same level and namespace when both fit one block, their ranges
        # are disjoint, and the gap between them is no wider than their
        # combined width (Fig. 5 fuses [7-8] with [9-12]), so a
        # super-range never claims a large key region neither node
        # covers. A pinned insertion never coalesces.
        seek = self.coalesce and life == 0
        room = block_bytes - node_bytes
        tag_ns = tag_lo // NS_STRIDE
        tag_width = tag_hi - tag_lo + 1
        partner: IXEntry | None = None
        for entry in ways:
            elo = entry.lo
            ehi = entry.hi
            if elo == tag_lo and ehi == tag_hi and entry.level == tag_level:
                for _, part_node in entry.parts:
                    if part_node is node:
                        self.policy.on_hit(entry)
                        if entry.life < life:
                            entry.life = life
                        return True
                continue  # equal ranges overlap: never a partner
            if (not seek or entry.nbytes > room or entry.level != tag_level
                    or entry.life > 0 or entry.ns != tag_ns):
                continue
            if elo <= tag_hi and tag_lo <= ehi:
                continue  # overlapping ranges never coalesce
            gap = ((elo if elo > tag_lo else tag_lo)
                   - (ehi if ehi < tag_hi else tag_hi) - 1)
            if gap <= (ehi - elo + 1) + tag_width:
                partner = entry
                seek = False  # keep scanning for a duplicate only
        if partner is not None:
            partner.parts.append((tag, node))
            if tag_lo < partner.lo:
                partner.lo = tag_lo
            if tag_hi > partner.hi:
                partner.hi = tag_hi
            partner.nbytes += node_bytes
            self.stats.insertions += 1
            if self.tracer.enabled:
                self.tracer.emit("ix_insert", level=tag_level,
                                 lo=tag_lo, hi=tag_hi, coalesced=True)
            return True
        if len(ways) >= self.ways:
            self._evict_from(ways)
        entry = IXEntry(tag, [(tag, node)], life,
                        size if size < BLOCK_SIZE else BLOCK_SIZE)
        self.policy.on_insert(entry)
        ways.append(entry)
        self.stats.insertions += 1
        if self.tracer.enabled:
            self.tracer.emit("ix_insert", level=tag_level,
                             lo=tag_lo, hi=tag_hi, set=set_idx)
        return True

    def _place_wide(self, tag: RangeTag, node: IndexNode, life: int,
                    size: int) -> bool:
        lo, hi, level = tag
        for entry in self._wide:
            if (entry.lo == lo and entry.hi == hi and entry.level == level
                    and any(n is node for _, n in entry.parts)):
                self.policy.on_hit(entry)
                return True
        if len(self._wide) >= self.wide_capacity:
            self._evict_from(self._wide)
        entry = IXEntry(tag, [(tag, node)], life,
                        size if size < BLOCK_SIZE else BLOCK_SIZE)
        self.policy.on_insert(entry)
        self._wide.append(entry)
        self.stats.insertions += 1
        if self.tracer.enabled:
            self.tracer.emit("ix_insert", level=tag.level,
                             lo=tag.lo, hi=tag.hi, wide=True)
        return True

    def _evict_from(self, entries: list[IXEntry]) -> None:
        """Evict one entry of a full set (or the wide array).

        The replacement policy's :meth:`~repro.core.policy.ReplacementPolicy.evict`
        picks the victim among the unpinned entries, or reclaims a
        pinned one when every entry is pinned, removes it and ages the
        survivors. A victim still holding a lease was reclaimed.
        """
        victim = self.policy.evict(entries)
        self.stats.evictions += 1
        if self.tracer.enabled:
            if victim.life > 0:
                self.tracer.emit("ix_evict", level=victim.level,
                                 reason="pinned_reclaim")
            else:
                self.tracer.emit("ix_evict", level=victim.level,
                                 utility=victim.utility, reason="utility")

    # ------------------------------------------------------------------ #
    # Introspection (Fig. 21 occupancy, tests)
    # ------------------------------------------------------------------ #

    def invalidate_range(self, lo: int, hi: int) -> int:
        """Drop every entry overlapping [lo, hi] (namespaced keys).

        Called when an index mutates structurally (node splits/merges):
        cached nodes whose ranges intersect the dirty interval may be
        stale. Returns the number of entries removed.
        """
        if lo > hi:
            raise ValueError(f"invalid range [{lo}, {hi}]")
        removed = 0
        for ways in self._sets:
            keep = [e for e in ways if e.lo > hi or lo > e.hi]
            removed += len(ways) - len(keep)
            ways[:] = keep
        keep = [e for e in self._wide if e.lo > hi or lo > e.hi]
        removed += len(self._wide) - len(keep)
        self._wide[:] = keep
        self.stats.evictions += removed
        if self.tracer.enabled:
            for _ in range(removed):
                self.tracer.emit("ix_evict", reason="invalidate")
        return removed

    def entries(self) -> list[IXEntry]:
        return [e for ways in self._sets for e in ways] + list(self._wide)

    @property
    def capacity_entries(self) -> int:
        """Total entry slots across the set-associative and wide arrays."""
        return self.num_sets * self.ways + self.wide_capacity

    @property
    def occupancy_fraction(self) -> float:
        """Live entries over capacity (the Fig. 21/22 occupancy series)."""
        return len(self) / max(1, self.capacity_entries)

    def occupancy_by_level(self) -> dict[int, int]:
        """Number of cached entries per index level."""
        counts: Counter[int] = Counter()
        for entry in self.entries():
            counts[entry.level] += 1
        return dict(counts)

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self._wide = []
        # Cross-entry policy state (LRU ticks, step counters) resets with
        # the contents: a cleared cache must behave like a fresh one.
        self.policy.clear()
