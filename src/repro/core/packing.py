"""Packing index nodes into 64B cache blocks (Fig. 5).

Three cases:

* Case 1 — node size == block size: one entry tagged with the exact range.
* Case 2 — node size > block size: the node is split into sub-range
  entries, each holding a slice of the child pointers.
* Case 3 — node size < block size: adjacent same-level nodes can be
  coalesced into one entry tagged with the super-range (done
  opportunistically by the IX-cache at insert time, in
  :meth:`~repro.core.ix_cache.IXCache._place_in_set`).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.range_tag import RangeTag
from repro.indexes.base import IndexNode
from repro.params import BLOCK_SIZE, KEY_BYTES, PTR_BYTES

_NEG_INF = float("-inf")
_POS_INF = float("inf")


def blocks_needed(node: IndexNode, block_bytes: int = BLOCK_SIZE) -> int:
    """Number of cache blocks the node's keys + pointers occupy."""
    return max(1, -(-node.byte_size() // block_bytes))


def pack_node(
    node: IndexNode,
    ns: Callable[[int], int],
    block_bytes: int = BLOCK_SIZE,
) -> list[tuple[RangeTag, IndexNode]]:
    """Split a node into (tag, node) entries, one per cache block.

    ``ns`` maps raw keys into the namespaced key space of the shared cache.
    Case 1 yields a single exact-range entry. Case 2 splits the children
    into contiguous groups, one entry per block, each tagged with the
    sub-range it can resolve ("Each entry holds one of the child pointers",
    generalized to however many fit a block).
    """
    if node.lo is None or node.hi is None:
        return []
    if node.lo == _NEG_INF or node.hi == _POS_INF:
        # Sentinel nodes (skip-list heads) have no representable range and
        # would falsely cover other buckets' keys once clamped.
        return []
    lo, hi = ns(node.lo), ns(node.hi)
    if not node.keys:
        # Keyless nodes (radix page-table nodes index by address bits, not
        # stored keys) cannot be subdivided: one exact-range entry.
        return [(RangeTag(lo, hi, node.level), node)]
    n_blocks = blocks_needed(node, block_bytes)
    if n_blocks == 1:
        return [(RangeTag(lo, hi, node.level), node)]

    if node.children:
        per_block = max(1, -(-len(node.children) // n_blocks))
        entries: list[tuple[RangeTag, IndexNode]] = []
        for start in range(0, len(node.children), per_block):
            group = node.children[start : start + per_block]
            entries.append(
                (RangeTag(ns(group[0].lo), ns(group[-1].hi), node.level), node)
            )
        return entries

    # Oversized leaf: split its key list into per-block sub-ranges.
    keys = node.keys
    per_block = max(1, (block_bytes // (KEY_BYTES + PTR_BYTES)))
    entries = []
    for start in range(0, len(keys), per_block):
        chunk = keys[start : start + per_block]
        entries.append((RangeTag(ns(chunk[0]), ns(chunk[-1]), node.level), node))
    return entries


def pack_sized(
    node: IndexNode,
    ns: Callable[[int], int],
    block_bytes: int = BLOCK_SIZE,
) -> list[tuple[RangeTag, IndexNode, int]]:
    """:func:`pack_node`'s entries, each with its part's byte size.

    :meth:`~repro.core.ix_cache.IXCache.plan` lays these entries out
    for ``insert``: a caller that keeps the plan sizes each node once.
    """
    return [(tag, part, part.byte_size())
            for tag, part in pack_node(node, ns, block_bytes)]
