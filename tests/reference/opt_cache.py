"""Reference Belady-OPT hit flags: a dict of next-use lists and a tuple heap.

Before each access, the block's own position is popped from its list of
upcoming positions; what is left on top is its next use (``len + 1``
when there is none). On a miss into a full cache, ``(-next_use, block)``
tuples are popped until one names a resident block whose recorded next
use is still current; that block is evicted. Ties between never-reused
blocks go to the smallest block id.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Sequence


def belady_hit_flags(trace: Sequence[int], capacity_blocks: int) -> list[bool]:
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
