"""Common node and index abstractions shared by every index type.

The memory-system models (address cache, X-cache, IX-cache) are generic
over :class:`IndexNode`: a node knows its level, its key range ``[lo, hi]``,
its sorted keys and children, and its DRAM address/size. An index exposes
``walk(key)`` (the root-to-leaf node path) plus enough geometry for the
working-set and occupancy metrics.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from typing import Any

from repro.mem.layout import Allocator
from repro.params import KEY_BYTES, PTR_BYTES

_node_ids = itertools.count()
_index_ids = itertools.count()


def next_index_id() -> int:
    """Unique id per index instance; namespaces keys in shared caches."""
    return next(_index_ids)


class IndexNode:
    """One node of a multi-level index, as the hardware sees it.

    ``level`` counts from the root (root = 0) downward; ``lo``/``hi`` are the
    smallest and largest keys reachable through this node — exactly the
    [Lo, Hi] tuple the IX-cache uses as a tag (Fig. 5).
    """

    __slots__ = (
        "node_id",
        "level",
        "lo",
        "hi",
        "keys",
        "children",
        "values",
        "address",
        "nbytes",
        "next_leaf",
    )

    def __init__(
        self,
        level: int,
        keys: Sequence[Any],
        *,
        children: list["IndexNode"] | None = None,
        values: list[Any] | None = None,
        lo: Any = None,
        hi: Any = None,
    ) -> None:
        self.node_id = next(_node_ids)
        self.level = level
        self.keys = list(keys)
        self.children = children
        self.values = values
        self.lo = lo if lo is not None else (self.keys[0] if self.keys else None)
        self.hi = hi if hi is not None else (self.keys[-1] if self.keys else None)
        self.address = 0
        self.nbytes = 0
        self.next_leaf: IndexNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def byte_size(self) -> int:
        """Size of the node's on-DRAM representation."""
        n_keys = len(self.keys)
        n_ptrs = len(self.children) if self.children is not None else len(self.values or ())
        return max(KEY_BYTES, n_keys * KEY_BYTES + n_ptrs * PTR_BYTES)

    def covers(self, key: Any) -> bool:
        """Whether ``key`` falls inside this node's [lo, hi] range."""
        if self.lo is None or self.hi is None:
            return False
        return self.lo <= key <= self.hi

    def child_for(self, key: Any) -> "IndexNode":
        """Select the child whose subtree covers ``key``.

        Mirrors the hit-path child select of Fig. 6: parallel <= across the
        sorted separator keys, then first-set-bit from the right.
        """
        if self.children is None:
            raise TypeError("leaf nodes have no children")
        # Child ``i`` holds keys < keys[i]; the last child holds the rest.
        return self.children[bisect_right(self.keys, key)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "node"
        return f"<{kind} L{self.level} [{self.lo}..{self.hi}] #{self.node_id}>"


def assign_addresses(nodes: Iterator[IndexNode], allocator: Allocator) -> int:
    """Give every node a DRAM address; return total index bytes."""
    total = 0
    for node in nodes:
        node.nbytes = node.byte_size()
        node.address = allocator.alloc_index(node.nbytes)
        total += node.nbytes
    return total


def count_blocks(nodes: Iterator[IndexNode]) -> int:
    """Total distinct 64B blocks occupied by an index (working-set denom)."""
    blocks: set[int] = set()
    for node in nodes:
        blocks.update(Allocator.blocks_spanned(node.address, node.nbytes))
    return len(blocks)
