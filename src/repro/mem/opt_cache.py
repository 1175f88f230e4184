"""Fully-associative cache with Belady's optimal (OPT) replacement.

The paper's Section 5.1 compares against "a fully-associative address cache
with OPT policy (FA-OPT)" to show that address caches are limited by working
set, not policy. OPT needs the future, so :func:`belady_hit_flags` is an
offline two-pass computation of the hit/miss flag per access of a block
trace; ``repro.sim.memsys.FAOPTMemSys`` replays those flags walk by walk.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Sequence


def belady_hit_flags(trace: Sequence[int], capacity_blocks: int) -> list[bool]:
    """Return per-access hit flags for OPT replacement on a block trace.

    Uses the classic next-use priority queue: on a fill conflict, evict the
    resident block whose next use is farthest in the future (or never).
    Runs in O(n log n).
    """
    if capacity_blocks <= 0:
        return [False] * len(trace)

    next_use: dict[int, list[int]] = defaultdict(list)
    for pos in reversed(range(len(trace))):
        next_use[trace[pos]].append(pos)

    resident: set[int] = set()
    # Max-heap of (-next_position, block); stale entries are skipped lazily.
    heap: list[tuple[int, int]] = []
    flags: list[bool] = []
    infinity = len(trace) + 1

    for pos, block in enumerate(trace):
        uses = next_use[block]
        uses.pop()  # drop the current position
        upcoming = uses[-1] if uses else infinity
        if block in resident:
            flags.append(True)
        else:
            flags.append(False)
            if len(resident) >= capacity_blocks:
                while heap:
                    neg_pos, victim = heapq.heappop(heap)
                    victim_uses = next_use[victim]
                    actual = victim_uses[-1] if victim_uses else infinity
                    if victim in resident and -neg_pos == actual:
                        resident.discard(victim)
                        break
            resident.add(block)
        heapq.heappush(heap, (-upcoming, block))
    return flags
