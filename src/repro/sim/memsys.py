"""Memory-system organizations under comparison (Section 5, Table 1).

Each variant generates walks straight into the columnar access stream
(:class:`~repro.sim.engine.TraceBatch`) while mutating its cache state.
Its one generator is ``process_chunk(batch, requests, prepared)``: it
emits every request of a chunk, in order, as one walk plus the request's
data/compute tail. ``prepared[i]`` is request ``i``'s path, resolved once
by :mod:`repro.sim.batch`: a :class:`WalkPath` (the SoA planner's path
to the key's leaf, or a memoized ``index.walk(key)``), or the plain node
list ``index.walk(key)`` over an index that may change. The probe,
short-circuit, insert/bypass, statistics, and trace and fault sites live
once per system. A request
with ``scan_hi`` set is a range scan: the walk to ``key`` is followed by
a leaf stream through ``scan_hi``, served by whatever the system caches.

* ``stream``   — streaming DSA: every node touch goes to DRAM.
* ``address``  — set-associative LRU address cache: full root-to-leaf walk
  with per-block probes (a hit eliminates a single DRAM access).
* ``address_l2`` — the same walk over an L1 + shared L2 hierarchy.
* ``fa_opt``   — fully-associative address cache with Belady-OPT
  replacement (two-pass; walks must replay in preparation order).
* ``xcache``   — X-cache [50]: key-tagged leaf cache; a hit short-circuits
  the whole walk, a miss walks root-to-leaf from DRAM and inserts the leaf.
* ``metal`` / ``metal_ix`` — IX-cache probe short-circuits to the deepest
  cached covering node; nodes fetched on the way down are offered to the
  pattern controller (METAL) or greedily inserted (METAL-IX).
"""

from __future__ import annotations

import inspect
import weakref
from abc import ABC, abstractmethod
from array import array
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from typing import Any

import numpy as np

from repro.core.controller import PatternController
from repro.core.ix_cache import IXCache
from repro.core.policy import ThresholdTuner
from repro.indexes.base import IndexNode
from repro.mem.address_cache import AddressCache
from repro.mem.opt_cache import belady_hits
from repro.mem.stats import CacheStats
from repro.obs.tracer import NULL_TRACER
from repro.params import BLOCK_SIZE, NS_STRIDE, CacheParams, SimParams
from repro.sim.engine import (
    K_COMPUTE, K_DRAM, K_LOCAL, K_PREFETCH, K_SRAM, TraceBatch,
)


def namespace_fn(index: Any) -> Callable[[int], int]:
    """Map raw index keys into the shared, per-index namespaced key space."""
    base = getattr(index, "index_id", 0) * NS_STRIDE
    neg_inf = float("-inf")
    pos_inf = float("inf")

    def ns(key: Any) -> int:
        if key is None or key == neg_inf:
            key = 0
        elif key == pos_inf:
            key = NS_STRIDE - 1
        k = int(key)
        if k < 0:
            k = 0
        elif k >= NS_STRIDE:
            k = NS_STRIDE - 1
        return base + k

    return ns


@lru_cache(maxsize=None)
def _blocks_for(address: int, nbytes: int) -> tuple[int, ...]:
    """Footprint for one (address, nbytes) extent — the memoized core.

    The footprint is an affine function of the extent alone (the METAL
    observation that walk behaviour is affine in (level, range) applies to
    node geometry too), so it is computed once per distinct extent instead
    of once per node visit. Keyed on (address, nbytes) rather than node
    identity: structural mutations allocate fresh extents, so stale nodes
    can never alias a live entry.
    """
    first = address - (address % BLOCK_SIZE)
    total = max(1, -(-(address + max(nbytes, 1) - first) // BLOCK_SIZE))
    touched = min(total, 1 + max(0, total - 1).bit_length())
    # Header plus evenly spaced probe blocks (deterministic for replay).
    if touched >= total:
        picks = range(total)
    else:
        step = total / touched
        picks = sorted({int(i * step) for i in range(touched)})
    return tuple(first + p * BLOCK_SIZE for p in picks)


def _node_blocks(node: IndexNode) -> tuple[int, ...]:
    """Block-aligned addresses a walker actually touches in a node.

    A multi-block node is binary-searched, not read whole: the walker
    fetches the header block plus ~log2(blocks) probe blocks. Every memory
    organization uses the same footprint, so comparisons stay fair.
    """
    return _blocks_for(node.address, node.nbytes)


#: Memoized small columns for node emission: a node with ``nb`` touched
#: blocks always emits ``nb`` DRAM entries plus one search step.
_KIND_ROWS: dict[int, array] = {}
_ZERO_ROWS: dict[int, array] = {}


def _kinds_row(nb: int) -> array:
    t = _KIND_ROWS.get(nb)
    if t is None:
        t = array("b", (K_DRAM,) * nb + (K_COMPUTE,))
        _KIND_ROWS[nb] = t
    return t


def _zeros_row(n: int) -> array:
    t = _ZERO_ROWS.get(n)
    if t is None:
        t = array("q", [0] * n)
        _ZERO_ROWS[n] = t
    return t


#: The kinds column of a whole walk, keyed by its node offsets: shared by
#: every walk with the same per-node touched-block counts.
_WALK_KINDS: dict[tuple[int, ...], array] = {}


class WalkPath(list):
    """A memoized walk: its nodes, root first, plus the walk's emission
    record, built by its first full emission (see :func:`_emit_walk`).

    The record is the walk's ``a1`` column for one ``t_search`` (each
    node's touched blocks, then its search step) and ``offsets``, where
    node ``j``'s entries start. The nodes before ``j`` fetch
    ``offsets[j] - j`` blocks. ``kinds`` is shared per block-count
    signature and ``a2`` is all zeros, so the walk, or any suffix of it,
    appends as three array concatenations instead of node by node. Only
    walks over an index that does not change may carry a record: the
    :data:`~repro.sim.batch.WalkMemo` entries (``index.walk(key)``) and
    the SoA planner's per-leaf paths. A plain list is emitted by
    :func:`_emit_nodes`.

    ``by_level`` marks a planner path, whose node ``j`` sits at level
    ``j``: METAL's walk below a cached node starts at that node's level
    plus one. On other paths ``index.walk_from`` says where it starts.
    """

    __slots__ = ("t_search", "kinds", "a1", "offsets", "by_level")

    def __init__(self, nodes: Iterable[IndexNode], by_level: bool = False) -> None:
        super().__init__(nodes)
        self.t_search: int | None = None
        self.by_level = by_level

    def _build(self, t_search: int) -> None:
        a1 = array("q")
        offsets = [0]
        for node in self:
            a1.extend(_blocks_for(node.address, node.nbytes))
            a1.append(t_search)
            offsets.append(len(a1))
        offsets = tuple(offsets)
        # The offsets fix every node's block count: nb = next - start - 1.
        kinds = _WALK_KINDS.get(offsets)
        if kinds is None:
            kinds = array("b")
            for start, end in zip(offsets, offsets[1:]):
                kinds += _kinds_row(end - start - 1)
            _WALK_KINDS[offsets] = kinds
        self.kinds = kinds
        self.a1 = a1
        self.offsets = offsets
        self.t_search = t_search

    def emit(self, batch: Any, t_search: int, first: int = 0) -> int:
        """Append nodes ``first`` onward as a DRAM walk; return its block count."""
        if self.t_search != t_search:
            self._build(t_search)
        a1 = self.a1
        start = self.offsets[first]
        size = len(a1) - start
        if start:
            batch.kinds += self.kinds[start:]
            batch.a1 += a1[start:]
        else:
            batch.kinds += self.kinds
            batch.a1 += a1
        batch.a2 += _zeros_row(size)
        return size - (len(self) - first)

    def suffix_start(self, tail: list[IndexNode]) -> int:
        """Where ``tail`` starts in this walk if it is the walk's own
        suffix (node for node, by identity), else -1."""
        start = len(self) - len(tail)
        if start < 0:
            return -1
        for position, node in enumerate(tail, start):
            if node is not self[position]:
                return -1
        return start


def _path_blocks(path: Sequence[IndexNode]) -> list[tuple[int, ...]]:
    """Touched block addresses of every node on a resolved path, root first."""
    return [_blocks_for(node.address, node.nbytes) for node in path]


def _emit_nodes(batch: Any, nodes: Sequence[IndexNode], t_search: int) -> int:
    """Append a DRAM walk over ``nodes``; return its DRAM block count.

    Each node is its touched blocks plus one search step.
    """
    kinds = batch.kinds
    a1 = batch.a1
    a2 = batch.a2
    total = 0
    for node in nodes:
        blocks = _blocks_for(node.address, node.nbytes)
        nb = len(blocks)
        kinds += _kinds_row(nb)
        a1.extend(blocks)
        a1.append(t_search)
        a2 += _zeros_row(nb + 1)
        total += nb
    return total


def _emit_walk(
    batch: Any, path: list[IndexNode], nodes: Sequence[IndexNode],
    t_search: int,
) -> int:
    """Append a DRAM walk over ``nodes``; return its DRAM block count.

    ``nodes`` is the path ``path`` itself, or what ``index.walk_from``
    left to fetch on it after a short-circuit. A
    memoized path's first full emission builds its record; the record
    then also serves ``nodes`` that are the path's own suffix. Anything
    else, and every plain list, is emitted node by node.
    """
    if type(path) is WalkPath:
        if nodes is path:
            return path.emit(batch, t_search)
        # A suffix does not build the record: a cold short-circuited
        # walk emits fewer nodes than building the whole path's would.
        if path.t_search == t_search:
            first = path.suffix_start(nodes)
            if first >= 0:
                return path.emit(batch, t_search, first)
    return _emit_nodes(batch, nodes, t_search)


def _emit_path(batch: Any, path: list[IndexNode], t_search: int) -> int:
    """Append the full DRAM walk of a resolved path; return its node count."""
    batch.index_dram += _emit_walk(batch, path, path, t_search)
    return len(path)


def _scanned_leaves(path: list[IndexNode], hi: int) -> list[IndexNode]:
    """Leaves a range scan streams through ``hi`` after its walk's leaf.

    The walk fetched the first leaf; the stream follows the leaf links
    while each leaf's low bound is within the range.
    """
    leaf = path[-1]
    leaves: list[IndexNode] = []
    if leaf.lo is None or leaf.lo > hi:
        return leaves
    leaf = getattr(leaf, "next_leaf", None)
    while leaf is not None and leaf.lo is not None and leaf.lo <= hi:
        leaves.append(leaf)
        leaf = getattr(leaf, "next_leaf", None)
    return leaves


def _fetch_leaf(batch: Any, leaf: IndexNode) -> int:
    """Append a scanned leaf's DRAM blocks (no search step); return their count."""
    blocks = _blocks_for(leaf.address, leaf.nbytes)
    for addr in blocks:
        batch.kinds.append(K_DRAM)
        batch.a1.append(addr)
        batch.a2.append(0)
    return len(blocks)


def _stream_leaves(batch: Any, path: list[IndexNode], hi: int) -> int:
    """Fetch every scanned leaf from DRAM; return how many were streamed."""
    leaves = _scanned_leaves(path, hi)
    for leaf in leaves:
        batch.index_dram += _fetch_leaf(batch, leaf)
    return len(leaves)


def _emit_replay(
    batch: Any, skel: TraceBatch, probe_ends: list[int], hits: np.ndarray,
    t_probe: int,
) -> int:
    """Append ``skel``'s walks to ``batch`` behind FA-OPT's replayed flags.

    ``skel`` holds a chunk's walks as DRAM streams. Walk ``i``'s DRAM
    entries before ``probe_ends[i]`` are its cache accesses, one flag of
    ``hits`` each, in order: each becomes an SRAM probe of its block
    (``t_probe`` cycles), followed by the DRAM fetch on a miss. Every
    other entry is copied. Returns the number of misses.
    """
    kinds, a1, a2 = skel.arrays()
    offsets = np.asarray(skel.offsets, dtype=np.int64)
    sites = np.flatnonzero(kinds == K_DRAM)
    walks = np.searchsorted(offsets[:-1], sites, side="right") - 1
    sites = sites[sites < np.asarray(probe_ends, dtype=np.int64)[walks]]
    miss = ~hits
    extra = np.zeros(len(kinds), dtype=np.int64)
    extra[sites] = miss
    grown = np.concatenate(([0], np.cumsum(extra)))
    pos = np.arange(len(kinds)) + grown[:-1]
    out_kinds = np.empty(len(kinds) + int(grown[-1]), dtype=np.int8)
    out_a1 = np.empty(len(out_kinds), dtype=np.int64)
    out_a2 = np.zeros(len(out_kinds), dtype=np.int64)
    out_kinds[pos] = kinds
    out_a1[pos] = a1
    out_a2[pos] = a2
    probe = pos[sites]
    addr = a1[sites]
    out_kinds[probe] = K_SRAM
    out_a1[probe] = addr // BLOCK_SIZE
    out_a2[probe] = t_probe
    fetch = probe[miss] + 1
    out_kinds[fetch] = K_DRAM
    out_a1[fetch] = addr[miss]
    base = len(batch.kinds)
    batch.kinds.frombytes(out_kinds.tobytes())
    batch.a1.frombytes(out_a1.tobytes())
    batch.a2.frombytes(out_a2.tobytes())
    batch.offsets += (offsets[1:] + grown[offsets[1:]] + base).tolist()
    batch.start_levels += skel.start_levels
    batch.visits += skel.visits
    batch.nodes_visited += skel.nodes_visited
    return len(fetch)


def _unhook(hooks: list, hook: Callable) -> None:
    """Drop ``hook`` from an index's hook list, if it is still there."""
    try:
        hooks.remove(hook)
    except ValueError:
        pass


class MemorySystem(ABC):
    """Generates walks into a columnar access stream, maintaining cache state."""

    name: str = "abstract"

    def __init__(self, sim: SimParams | None = None) -> None:
        self.sim = sim or SimParams()
        self.tracer = NULL_TRACER
        #: Optional FaultInjector (repro.faults). None on fault-free runs;
        #: only systems with corruptible state (the IX-cache) act on it.
        self.faults = None
        # Memoized namespace closures keyed by index_id (namespace_fn is
        # a pure function of the id, so sharing one closure per index is
        # behavior-identical to building one per walk).
        self._ns_cache: dict[int, Callable[[int], int]] = {}

    def attach_faults(self, injector) -> None:
        """Wire a FaultInjector into the trace-generation path."""
        self.faults = injector

    def attach_obs(self, tracer, registry=None) -> None:
        """Wire tracing through this system and its cache components.

        Binds the system's :class:`CacheStats` (when it has one) under
        ``cache.<name>`` in the registry and propagates the tracer into
        the underlying cache models so their probe/insert/evict events
        flow into one buffer.
        """
        self.tracer = tracer
        if registry is not None:
            stats = self.cache_stats
            if stats is not None:
                registry.bind_stats(f"cache.{self.name}", stats, (
                    "accesses", "hits", "misses",
                    "insertions", "evictions", "bypasses",
                ))
        self._attach_components(tracer, registry)

    def _attach_components(self, tracer, registry=None) -> None:
        """Propagate the tracer into owned cache models (overridden)."""

    @abstractmethod
    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        """Generate one request chunk into a columnar ``TraceBatch``.

        ``prepared[i]`` is request ``i``'s resolved path, root first: a
        :class:`WalkPath`, or a plain ``index.walk(key)`` list over an
        index that may change. Requests are generated in order, each
        into exactly one walk closed by ``TraceBatch.finish_walk``; a
        request with ``scan_hi`` set streams its leaves after the walk.
        """

    def _ns_for(self, index: Any) -> Callable[[int], int]:
        index_id = getattr(index, "index_id", 0)
        ns = self._ns_cache.get(index_id)
        if ns is None:
            ns = namespace_fn(index)
            self._ns_cache[index_id] = ns
        return ns

    @property
    def cache_stats(self) -> CacheStats | None:
        return None


class StreamingMemSys(MemorySystem):
    """No index reuse: each visited node is a DRAM fetch (Aurochs/SJoin)."""

    name = "stream"

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        t_search = self.sim.t_search
        for request, prep in zip(requests, prepared):
            visited = _emit_path(batch, prep, t_search)
            if request.scan_hi is not None:
                visited += _stream_leaves(batch, prep, request.scan_hi)
            batch.finish_walk(request, 0, visited, False, False)


class AddressCacheMemSys(MemorySystem):
    """Conventional address cache in front of DRAM (Widx / MAD style).

    ``prefetch=True`` adds a next-line prefetcher (the classic linked-data
    mitigation the related work surveys): every demand miss also pulls the
    following block. It helps multi-block nodes but cannot predict the
    data-dependent child pointer — exactly the limitation the paper's
    walks expose.
    """

    name = "address"

    def __init__(
        self,
        sim: SimParams | None = None,
        cache_params: CacheParams | None = None,
        prefetch: bool = False,
    ) -> None:
        super().__init__(sim)
        self.cache = AddressCache(cache_params)
        self.prefetch = prefetch
        if prefetch:
            self.name = "address_pf"

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def _attach_components(self, tracer, registry=None) -> None:
        self.cache.attach_obs(tracer, registry)

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        # One plain loop per block over its set's OrderedDict: the bulk
        # form of ``AddressCache.lookup``, then ``insert`` on a miss and,
        # with ``prefetch``, ``contains``/``insert`` of the next block.
        # A range scan's leaves are probed the same way after the walk,
        # with no search steps and no prefetches. Counters are added to
        # the cache's statistics once per chunk.
        t_probe = self.sim.t_addr_probe
        t_search = self.sim.t_search
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        cache = self.cache
        sets = cache.sets
        num_sets = len(sets)
        ways_per_set = cache.params.ways
        block_bytes = cache.params.block_bytes
        prefetch = self.prefetch
        tracer = self.tracer
        tracing = tracer.enabled
        probes = misses = prefetches = evictions = 0
        for request, prep in zip(requests, prepared):
            if tracing:
                tracer.walk = batch.num_walks
            nodes = _path_blocks(prep)
            walk_nodes = len(nodes)
            if request.scan_hi is not None:
                nodes += [
                    _blocks_for(leaf.address, leaf.nbytes)
                    for leaf in _scanned_leaves(prep, request.scan_hi)
                ]
            for j, blocks in enumerate(nodes):
                on_walk = j < walk_nodes
                probes += len(blocks)
                for addr in blocks:
                    kinds.append(K_SRAM)
                    a1.append(addr // BLOCK_SIZE)
                    a2.append(t_probe)
                    block = addr // block_bytes
                    ways = sets[block % num_sets]
                    if tracing:
                        tracer.emit("addr_probe", block=block, hit=block in ways)
                    if block in ways:
                        ways.move_to_end(block)
                        continue
                    kinds.append(K_DRAM)
                    a1.append(addr)
                    a2.append(0)
                    misses += 1
                    if len(ways) >= ways_per_set:
                        ways.popitem(last=False)
                        evictions += 1
                    ways[block] = None
                    if prefetch and on_walk:
                        block = (addr + BLOCK_SIZE) // block_bytes
                        ways = sets[block % num_sets]
                        if block not in ways:
                            kinds.append(K_PREFETCH)
                            a1.append(addr + BLOCK_SIZE)
                            a2.append(0)
                            prefetches += 1
                            if len(ways) >= ways_per_set:
                                ways.popitem(last=False)
                                evictions += 1
                            ways[block] = None
                if on_walk:
                    kinds.append(K_COMPUTE)
                    a1.append(t_search)
                    a2.append(0)
            batch.finish_walk(request, 0, len(nodes), False, False)
        batch.index_dram += misses
        stats = cache.stats
        stats.accesses += probes
        stats.hits += probes - misses
        stats.misses += misses
        stats.insertions += misses + prefetches
        stats.evictions += evictions


class HierarchyMemSys(MemorySystem):
    """Two-level (L1 + shared L2) address hierarchy baseline.

    A stronger conventional strawman than the flat address cache: walkers
    get a fast private-ish L1 backed by the shared L2. Walks still
    serialize level by level; only the per-level service latency changes.
    """

    name = "address_l2"

    def __init__(
        self,
        sim: SimParams | None = None,
        cache_params: CacheParams | None = None,
    ) -> None:
        super().__init__(sim)
        from repro.mem.hierarchy import CacheHierarchy, HierarchyParams

        if cache_params is not None:
            # Split the budget 1:7 between L1 and L2 (typical ratio).
            l1_bytes = max(BLOCK_SIZE * 4, cache_params.capacity_bytes // 8)
            params = HierarchyParams(
                l1=CacheParams(capacity_bytes=l1_bytes, ways=4, t_hit=2),
                l2=CacheParams(
                    capacity_bytes=max(BLOCK_SIZE * 4,
                                       cache_params.capacity_bytes - l1_bytes),
                    ways=cache_params.ways,
                    t_hit=14,
                ),
            )
            self.hierarchy = CacheHierarchy(params)
        else:
            self.hierarchy = CacheHierarchy()

    @property
    def cache_stats(self) -> CacheStats:
        # Report the L2 (shared level) statistics: the L1 is a latency
        # filter, capacity behaviour lives in the L2.
        return self.hierarchy.l2.stats

    def _attach_components(self, tracer, registry=None) -> None:
        self.hierarchy.l1.attach_obs(tracer, registry, prefix="cache.address_l1")
        self.hierarchy.l2.attach_obs(tracer, registry)

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        # One plain loop per block over both levels' per-set OrderedDicts:
        # the bulk form of ``CacheHierarchy.lookup`` (L1, then L2 and an
        # L1 fill on an L2 hit) and, on a miss, ``insert`` into L2 then
        # L1. A block that missed a level is still absent from it, so
        # each fill is an eviction when the set is full plus an append.
        # Counters are added to both levels' statistics once per chunk.
        t_search = self.sim.t_search
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        hierarchy = self.hierarchy
        l1 = hierarchy.l1
        l2 = hierarchy.l2
        sets1 = l1.sets
        sets2 = l2.sets
        num_sets1 = len(sets1)
        num_sets2 = len(sets2)
        ways1 = l1.params.ways
        ways2 = l2.params.ways
        bytes1 = l1.params.block_bytes
        bytes2 = l2.params.block_bytes
        l1_cycles = hierarchy.latency_of(1)
        l2_cycles = hierarchy.latency_of(2)
        miss_cycles = hierarchy.miss_latency_cycles
        tracer = self.tracer
        tracing = tracer.enabled
        tracer1 = l1.tracer
        tracer2 = l2.tracer
        tracing1 = tracer1.enabled
        tracing2 = tracer2.enabled
        block_size = BLOCK_SIZE
        probes = l1_hits = l2_hits = misses = evictions1 = evictions2 = 0
        for request, prep in zip(requests, prepared):
            if tracing:
                tracer.walk = batch.num_walks
            path = _path_blocks(prep)
            probes += sum(map(len, path))
            for blocks in path:
                for block_addr in blocks:
                    block1 = block_addr // bytes1
                    set1 = sets1[block1 % num_sets1]
                    hit = block1 in set1
                    if tracing1:
                        tracer1.emit("addr_probe", block=block1, hit=hit)
                    if hit:
                        set1.move_to_end(block1)
                        l1_hits += 1
                        # L1 hits are private: no crossbar port.
                        kinds.append(K_LOCAL)
                        a1.append(l1_cycles)
                        a2.append(0)
                        continue
                    block2 = block_addr // bytes2
                    set2 = sets2[block2 % num_sets2]
                    hit = block2 in set2
                    if tracing2:
                        tracer2.emit("addr_probe", block=block2, hit=hit)
                    kinds.append(K_SRAM)
                    a1.append(block_addr // block_size)
                    if hit:
                        set2.move_to_end(block2)
                        l2_hits += 1
                        a2.append(l2_cycles)
                    else:
                        a2.append(miss_cycles)
                        kinds.append(K_DRAM)
                        a1.append(block_addr)
                        a2.append(0)
                        misses += 1
                        if len(set2) >= ways2:
                            set2.popitem(last=False)
                            evictions2 += 1
                        set2[block2] = None
                    if len(set1) >= ways1:
                        set1.popitem(last=False)
                        evictions1 += 1
                    set1[block1] = None
                kinds.append(K_COMPUTE)
                a1.append(t_search)
                a2.append(0)
            visited = len(path)
            if request.scan_hi is not None:
                visited += _stream_leaves(batch, prep, request.scan_hi)
            batch.finish_walk(request, 0, visited, False, False)
        batch.index_dram += misses
        l1_misses = probes - l1_hits
        stats = l1.stats
        stats.accesses += probes
        stats.hits += l1_hits
        stats.misses += l1_misses
        stats.insertions += l1_misses
        stats.evictions += evictions1
        stats = l2.stats
        stats.accesses += l1_misses
        stats.hits += l2_hits
        stats.misses += misses
        stats.insertions += misses
        stats.evictions += evictions2


class FAOPTMemSys(MemorySystem):
    """Fully-associative address cache with Belady-OPT replacement.

    Built via :meth:`prepare` from the complete walk sequence; walks must
    then be generated in exactly that order. The block trace is one flat
    array of block ids, walk ``i``'s blocks at
    ``blocks[offsets[i]:offsets[i + 1]]``, with one hit flag per block.
    """

    name = "fa_opt"

    def __init__(
        self,
        blocks: np.ndarray,
        offsets: np.ndarray,
        hit_flags: np.ndarray,
        sim: SimParams | None = None,
    ) -> None:
        super().__init__(sim)
        self._blocks = blocks
        self._offsets = offsets
        self._flags = hit_flags
        self._walk_cursor = 0
        self.stats = CacheStats()

    @classmethod
    def prepare(
        cls,
        requests: Iterable[tuple[Any, int]],
        cache_params: CacheParams | None = None,
        sim: SimParams | None = None,
        walks: dict | None = None,
    ) -> "FAOPTMemSys":
        """Two-pass construction from (index, key) walk requests.

        ``walks`` is the workload's walk memo (``Workload.walks``): the
        first pass resolves only the walks no earlier run has.
        """
        from repro.sim.batch import resolve_walks  # avoid an import cycle

        params = cache_params or CacheParams()
        path_blocks: dict[int, tuple[int, ...]] = {}
        trace: list[int] = []
        offsets = [0]
        paths = resolve_walks(list(requests), walks)
        for path in paths:
            blocks = path_blocks.get(id(path))
            if blocks is None:
                blocks = tuple(
                    addr // BLOCK_SIZE
                    for node in path
                    for addr in _blocks_for(node.address, node.nbytes)
                )
                path_blocks[id(path)] = blocks
            trace += blocks
            offsets.append(len(trace))
        blocks = np.array(trace, dtype=np.int64)
        flags = belady_hits(blocks, params.entries)
        return cls(blocks, np.array(offsets, dtype=np.int64), flags, sim)

    @property
    def cache_stats(self) -> CacheStats:
        return self.stats

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        # The walk's blocks and flags come from the two-pass replay, not
        # the path: each block is a probe, a DRAM fetch on a miss, and a
        # search step. A range scan's leaves then stream from DRAM.
        first = self._walk_cursor
        last = first + len(requests)
        if last >= len(self._offsets):
            raise IndexError("FA-OPT replayed more walks than prepared")
        if not requests:
            return
        self._walk_cursor = last
        offsets = self._offsets[first:last + 1]
        lo, hi = int(offsets[0]), int(offsets[-1])
        blocks = self._blocks[lo:hi]
        hits = self._flags[lo:hi]
        pair_kinds = np.empty(2 * len(blocks), dtype=np.int8)
        pair_kinds[0::2] = K_DRAM
        pair_kinds[1::2] = K_COMPUTE
        pair_a1 = np.empty(2 * len(blocks), dtype=np.int64)
        pair_a1[0::2] = blocks * BLOCK_SIZE
        pair_a1[1::2] = self.sim.t_search
        pair_kinds = pair_kinds.tobytes()
        pair_a1 = pair_a1.tobytes()
        skel = TraceBatch()
        probe_ends: list[int] = []
        for request, prep, start, end in zip(
            requests, prepared, (2 * (offsets[:-1] - lo)).tolist(),
            (2 * (offsets[1:] - lo)).tolist(),
        ):
            skel.kinds.frombytes(pair_kinds[start:end])
            skel.a1.frombytes(pair_a1[8 * start:8 * end])
            skel.a2 += _zeros_row(end - start)
            probe_ends.append(len(skel.kinds))
            visited = (end - start) // 2
            if request.scan_hi is not None:
                visited += _stream_leaves(skel, prep, request.scan_hi)
            skel.finish_walk(request, 0, visited, False, False)
        misses = _emit_replay(batch, skel, probe_ends, hits, self.sim.t_fa_probe)
        batch.index_dram += misses + skel.index_dram
        stats = self.stats
        stats.accesses += len(blocks)
        stats.hits += len(blocks) - misses
        stats.misses += misses
        stats.insertions += misses
        tracer = self.tracer
        if tracer.enabled:
            # Fully-associative lookup = CAM match across every entry.
            walks = np.repeat(
                np.arange(batch.num_walks - len(requests), batch.num_walks),
                np.diff(offsets),
            )
            for walk, block, hit in zip(
                walks.tolist(), blocks.tolist(), hits.tolist()
            ):
                tracer.walk = walk
                tracer.emit("opt_probe", block=block, hit=hit)
            tracer.walk = batch.num_walks - 1


class XCacheMemSys(MemorySystem):
    """X-cache: leaf cache tagged by application key."""

    name = "xcache"

    def __init__(
        self, sim: SimParams | None = None, cache_params: CacheParams | None = None
    ) -> None:
        super().__init__(sim)
        from repro.mem.xcache import XCache

        self.cache = XCache(cache_params)

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def _attach_components(self, tracer, registry=None) -> None:
        self.cache.attach_obs(tracer, registry)

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        t_probe = self.sim.t_addr_probe
        t_search = self.sim.t_search
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        lookup = self.cache.lookup
        insert = self.cache.insert
        tracer = self.tracer
        tracing = tracer.enabled
        for request, prep in zip(requests, prepared):
            if tracing:
                tracer.walk = batch.num_walks
            ns_key = self._ns_for(request.index)(request.key)
            kinds.append(K_SRAM)
            a1.append(ns_key & 0xFFFF)
            a2.append(t_probe)
            leaf = lookup(ns_key)
            if leaf is not None:
                # Fast path: the whole walk is short-circuited.
                start_level = getattr(leaf, "level", 0)
                visited = 0
            else:
                start_level = 0
                visited = _emit_path(batch, prep, t_search)
                insert(ns_key, prep[-1])
            hit = leaf is not None
            if request.scan_hi is not None:
                visited += _stream_leaves(batch, prep, request.scan_hi)
            batch.finish_walk(request, start_level, visited, hit, hit)


class MetalMemSys(MemorySystem):
    """METAL / METAL-IX: IX-cache probe + pattern-directed insertions."""

    def __init__(self, name: str, cache: IXCache,
                 controller: PatternController | None,
                 sim: SimParams | None = None) -> None:
        super().__init__(sim)
        self.name = name
        self.cache = cache
        #: The pattern controller (METAL); None for METAL-IX, which
        #: inserts every fetched node greedily.
        self.controller = controller
        self._tracked: set[int] = set()
        #: IX-cache placement plans (``IXCache.plan``) per index id, keyed
        #: by node, for the nodes of :class:`WalkPath` walks (see
        #: ``process_chunk``).
        self._packed: dict[int, dict[IndexNode, list]] = {}

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def _attach_components(self, tracer, registry=None) -> None:
        self.cache.attach_obs(tracer, registry)
        if self.controller is not None:
            self.controller.tracer = tracer

    def _track(self, index: Any) -> None:
        """Subscribe to the index's structural changes for invalidation.

        The hook holds the IX-cache weakly and leaves the index's hook
        list once the cache is collected, so an index that outlives many
        runs (a built workload's) keeps none of them alive.
        """
        index_id = getattr(index, "index_id", None)
        if index_id is None or index_id in self._tracked:
            return
        self._tracked.add(index_id)
        hooks = getattr(index, "on_structural_change", None)
        if hooks is None:
            return
        ns = namespace_fn(index)
        cache = self.cache
        cache_ref = weakref.ref(cache)

        def invalidate(lo: Any, hi: Any) -> None:
            live = cache_ref()
            if live is not None:
                live.invalidate_range(ns(lo), ns(hi))

        hooks.append(invalidate)
        weakref.finalize(cache, _unhook, hooks, invalidate)

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        # One driver for the walk pipeline, calling the cache and the
        # controller through their own methods: begin_walk, probe, the
        # fetched nodes offered for insert-or-bypass, end_walk.
        cache = self.cache
        cache_probe = cache.probe
        cache_insert = cache.insert
        cache_plan = cache.plan
        kbb = cache.key_block_bits
        num_sets = cache.num_sets
        controller = self.controller
        tracer = self.tracer
        tracing = tracer.enabled
        faults = self.faults
        t_probe = self.sim.t_ix_probe
        t_search = self.sim.t_search
        tracked = self._tracked
        ns_cache = self._ns_cache
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        # Per-index height and pack memo, looked up when the index changes
        # (one index per chunk in the common case). No index mutates
        # inside one chunk: a mutating workload (rw_mix, the dynamic mix)
        # generates one request per chunk, so its next chunk re-reads the
        # height of the grown tree.
        cur_index = -1
        height = 0
        cur_packed: Any = None
        descriptor: Any = None
        index_dram = 0

        def insert(node: Any, life: int) -> None:
            # Caches ``node`` under ``insert_key``: the walk's probe key,
            # or a scanned leaf's low key. A placement plan is pure in a
            # node's geometry, its index's namespace and the cache's. A
            # WalkPath's index does not change, so its nodes reuse their
            # plans; a plain list's nodes can change between walks and
            # are planned on insert.
            if pmap is None:
                cache_insert(node, ns, life, insert_key)
                return
            plan = pmap.get(node)
            if plan is None:
                plan = cache_plan(node, ns)
                pmap[node] = plan
            cache_insert(node, ns, life, insert_key, plan)

        for request, prep in zip(requests, prepared):
            index = request.index
            key = request.key
            index_id = index.index_id
            if tracing:
                tracer.walk = batch.num_walks
            if index_id not in tracked:
                self._track(index)
            ns = ns_cache.get(index_id)
            if ns is None:
                ns = self._ns_for(index)
            ns_key = ns(key)
            if faults is not None and faults.storm():
                # Invalidation storm: a span of key blocks around the
                # probed key is invalidated wholesale (coherence storm /
                # spurious structural-change signal), forcing re-misses.
                span = faults.plan.storm_span_blocks << kbb
                faults.stats.storm_evictions += cache.invalidate_range(
                    max(0, ns_key - span), ns_key + span
                )
            if index_id != cur_index:
                cur_index = index_id
                height = index.height
                cur_packed = self._packed.setdefault(index_id, {})
            if controller is not None:
                # The governing descriptor (None: greedy insert-all).
                descriptor = controller.begin_walk(index_id, key)
            kinds.append(K_SRAM)
            a1.append((ns_key >> kbb) % num_sets)
            a2.append(t_probe)
            start = cache_probe(ns_key)
            if start is not None and faults is not None and faults.tag_corrupted():
                # The matched range tag failed its integrity check: trust
                # nothing it covers — invalidate the entry and refetch via
                # a full root-to-leaf walk (detected, recovered, accounted).
                cache.invalidate_range(ns_key, ns_key)
                faults.stats.tag_refetches += 1
                start = None
            if start is not None and not start.covers(key):
                # Stale hit: the index mutated under us and no
                # invalidation hook was wired. Fall back to a full walk.
                start = None
            nodes: Any = prep
            first = 0
            if start is not None:
                if type(prep) is WalkPath and prep.by_level:
                    # A covering cached node is exactly the node the full
                    # walk routes through at its level (sibling ranges are
                    # disjoint and a parent's range covers its children's),
                    # so the rest of the walk is the path below it.
                    first = start.level + 1
                    nodes = prep[first:]
                else:
                    try:
                        # The cached node itself is on-chip.
                        nodes = index.walk_from(start, key)[1:]
                    except KeyError:
                        # Stale node no longer part of the structure.
                        start = None
            if start is not None:
                start_level = start.level
                short = True
                if tracing:
                    tracer.emit("ix_short_circuit", key=key,
                                level=start_level, skipped=start_level)
            else:
                start_level = 0
                short = False
            if first:
                index_dram += prep.emit(batch, t_search, first)
            else:
                # Otherwise index.walk_from above decided what a
                # short-circuited walk fetches; a memoized path's record
                # serves only that.
                index_dram += _emit_walk(batch, prep, nodes, t_search)
            pmap = cur_packed if type(prep) is WalkPath else None
            insert_key = ns_key
            if descriptor is None:
                # Greedy insert-all (METAL-IX, or no governing descriptor).
                for node in nodes:
                    insert(node, 0)
            else:
                controller.offer(descriptor, nodes, height, short, insert)
            if controller is not None:
                controller.end_walk()
            visited = len(nodes)
            full = short and not nodes
            if request.scan_hi is not None:
                # The leaf stream follows the walk: each scanned leaf is
                # probed, served on-chip when resident, else fetched and
                # offered alone as a short-circuited walk's first node,
                # cached under its own low key.
                for leaf in _scanned_leaves(prep, request.scan_hi):
                    visited += 1
                    insert_key = ns(leaf.lo)
                    kinds.append(K_SRAM)
                    a1.append((insert_key >> kbb) % num_sets)
                    a2.append(t_probe)
                    if cache.peek(insert_key) is leaf:
                        continue
                    index_dram += _fetch_leaf(batch, leaf)
                    if descriptor is None:
                        insert(leaf, 0)
                    else:
                        controller.offer(descriptor, (leaf,), height, True,
                                         insert)
            batch.finish_walk(request, start_level, visited, short, full)
        batch.index_dram += index_dram


#: IXCache's keyword arguments after its CacheParams; both METAL kinds take them.
_IX_CACHE_ARGS = tuple(inspect.signature(IXCache).parameters)[1:]
#: The keyword arguments each kind takes besides ``sim`` and ``cache_params``.
_KIND_ARGS: dict[str, tuple[str, ...]] = {
    "stream": (),
    "address": (),
    "address_pf": (),
    "address_l2": (),
    "xcache": (),
    "fa_opt": ("requests", "walks"),
    "metal_ix": _IX_CACHE_ARGS,
    "metal": ("descriptors", "batch_walks", "tune", "tuner", *_IX_CACHE_ARGS),
}


def check_memsys_args(kind: str, names: Iterable[str] = ()) -> None:
    """Raise unless ``kind`` is a memory-system kind that takes every
    keyword argument in ``names``: ``ValueError`` for an unknown kind,
    ``TypeError`` naming each argument the kind does not take."""
    taken = _KIND_ARGS.get(kind)
    if taken is None:
        raise ValueError(f"unknown memory system kind {kind!r}")
    unknown = sorted(set(names).difference(taken))
    if unknown:
        raise TypeError(f"memory system {kind!r} does not take "
                        f"{', '.join(map(repr, unknown))}")


def make_memsys(
    kind: str,
    sim: SimParams | None = None,
    cache_params: CacheParams | None = None,
    **kwargs: Any,
) -> MemorySystem:
    """Factory over every organization the evaluation compares.

    ``sim`` and ``cache_params`` apply to every kind; any other keyword
    argument the kind does not take (:func:`check_memsys_args`) raises
    ``TypeError``. ``fa_opt`` needs ``requests`` (the two-pass OPT
    construction), which it resolves through the ``walks`` memo when one
    is given. ``metal_ix`` and ``metal`` build one :class:`IXCache` from
    ``cache_params`` and the IXCache arguments; ``metal`` needs
    ``descriptors`` and adds a :class:`PatternController` over the cache
    (``batch_walks``, ``tune``, and ``tuner``: a :class:`ThresholdTuner`
    or its keyword arguments).
    """
    check_memsys_args(kind, kwargs)
    if kind == "stream":
        return StreamingMemSys(sim)
    if kind == "address":
        return AddressCacheMemSys(sim, cache_params)
    if kind == "address_pf":
        return AddressCacheMemSys(sim, cache_params, prefetch=True)
    if kind == "address_l2":
        return HierarchyMemSys(sim, cache_params)
    if kind == "xcache":
        return XCacheMemSys(sim, cache_params)
    if kind == "fa_opt":
        if kwargs.get("requests") is None:
            raise ValueError("fa_opt needs the full request sequence")
        return FAOPTMemSys.prepare(
            kwargs["requests"], cache_params, sim, kwargs.get("walks"))
    if kind == "metal_ix":
        return MetalMemSys(kind, IXCache(cache_params, **kwargs), None, sim)
    descriptors = kwargs.pop("descriptors", None)
    if descriptors is None:
        raise ValueError("metal needs reuse descriptors")
    batch_walks = kwargs.pop("batch_walks", 1_000)
    tune = kwargs.pop("tune", True)
    tuner = kwargs.pop("tuner", None)
    cache = IXCache(cache_params, **kwargs)
    if isinstance(tuner, dict):
        tuner = ThresholdTuner(**tuner)
    controller = PatternController(
        descriptors, cache, batch_walks=batch_walks, tune=tune, tuner=tuner
    )
    return MetalMemSys(kind, cache, controller, sim)
