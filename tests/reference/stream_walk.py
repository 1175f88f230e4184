"""Reference streaming walk: every node a walk visits is a DRAM fetch.

Written from the definitions, not from ``repro.sim.memsys``:

* a walk to ``key`` visits ``index.walk(key)``, root first. Each node
  emits its header block, then evenly spaced probe blocks (a node of
  ``n`` blocks is binary-searched, so ``1 + bit_length(n - 1)`` blocks
  in all, capped at ``n``), then one ``t_search`` compute step;
* a range scan through ``hi`` then follows ``next_leaf`` from the walk's
  leaf while the leaf's low key is ``<= hi``, fetching each streamed
  leaf's blocks with no search step.

A walk visits its path's nodes plus its streamed leaves; every block it
fetches is one index-region DRAM entry.
"""

from __future__ import annotations

from repro.params import BLOCK_SIZE
from repro.sim.engine import K_COMPUTE, K_DRAM


def node_blocks(address: int, nbytes: int) -> list[int]:
    first = address - address % BLOCK_SIZE
    total = -(-(address + max(nbytes, 1) - first) // BLOCK_SIZE)
    touched = min(total, 1 + (total - 1).bit_length())
    return [first + i * total // touched * BLOCK_SIZE for i in range(touched)]


def fetch(node) -> list[tuple]:
    return [(K_DRAM, b, 0) for b in node_blocks(node.address, node.nbytes)]


def stream_walks(requests, t_search: int) -> tuple[list[list[tuple]], list[int]]:
    """Each request's walk as ``(kind, a1, a2)`` entries, and its nodes visited."""
    walks: list[list[tuple]] = []
    visits: list[int] = []
    for request in requests:
        path = request.index.walk(request.key)
        streamed = []
        leaf = path[-1].next_leaf
        while request.scan_hi is not None and leaf is not None and leaf.lo <= request.scan_hi:
            streamed.append(leaf)
            leaf = leaf.next_leaf
        entries = []
        for node in path:
            entries += fetch(node)
            entries.append((K_COMPUTE, t_search, 0))
        for leaf in streamed:
            entries += fetch(leaf)
        walks.append(entries)
        visits.append(len(path) + len(streamed))
    return walks, visits
