"""Fully-associative cache with Belady's optimal (OPT) replacement.

The paper's Section 5.1 compares against "a fully-associative address cache
with OPT policy (FA-OPT)" to show that address caches are limited by working
set, not policy. OPT needs the future, so :func:`belady_hits` is an
offline two-pass computation of the hit/miss flag per access of a block
trace; ``repro.sim.memsys.FAOPTMemSys`` replays those flags walk by walk.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np


def belady_hits(trace: Sequence[int] | np.ndarray, capacity_blocks: int) -> np.ndarray:
    """Per-access hit flags (a bool array) for OPT replacement on a block trace.

    The first pass builds every access's next use of the same block from
    one stable sort (``n`` when the block is never used again) and
    renumbers blocks densely. The second pass keeps a max-heap of
    ``(next_use << shift) | block`` ints, one pushed per access, and on
    a fill conflict evicts the resident block whose next use is farthest
    in the future. Each resident block has exactly one entry whose next
    use lies ahead (``> pos``); every other entry names a use that has
    already happened, so it sorts below all of those and the top of a
    full cache's heap is always a resident block's. The flags are
    unique: two resident blocks share a next use only when neither is
    used again, and which of those goes cannot change a later flag.
    O(n log n).
    """
    blocks = np.asarray(trace, dtype=np.int64).ravel()
    n = len(blocks)
    if capacity_blocks <= 0 or n == 0:
        return np.zeros(n, dtype=bool)
    order = np.argsort(blocks, kind="stable")
    same = blocks[order[1:]] == blocks[order[:-1]]
    next_use = np.full(n, n, dtype=np.int64)
    next_use[order[:-1][same]] = order[1:][same]
    dense = np.empty(n, dtype=np.int64)
    dense[order] = np.concatenate(([0], np.cumsum(~same)))
    shift = int(dense[order[-1]]).bit_length()
    mask = (1 << shift) - 1
    # Negated, so heapq's min-heap pops the farthest next use first.
    entries = (-((next_use << shift) | dense)).tolist()

    hits = bytearray(n)
    resident = bytearray(int(dense[order[-1]]) + 1)
    heap: list[int] = []
    heappush = heapq.heappush
    heapreplace = heapq.heapreplace
    free = capacity_blocks
    for pos, block in enumerate(dense.tolist()):
        if resident[block]:
            hits[pos] = 1
            heappush(heap, entries[pos])
        elif free:
            free -= 1
            resident[block] = 1
            heappush(heap, entries[pos])
        else:
            # Evict the farthest next use, then push this access's entry.
            resident[-heapreplace(heap, entries[pos]) & mask] = 0
            resident[block] = 1
    return np.frombuffer(hits, dtype=bool)


def belady_hit_flags(trace: Sequence[int], capacity_blocks: int) -> list[bool]:
    """:func:`belady_hits` as a list of bools."""
    return belady_hits(trace, capacity_blocks).tolist()
