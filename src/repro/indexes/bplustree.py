"""B+tree — the textbook index of the paper's running example (Fig. 1).

Supports bulk loading (with explicit fan-out so experiments can dial index
depth from 10 to 18 levels, Section 5.5), dynamic inserts with node splits
(needed by the dynamic sparse tensors of Chou & Amarasinghe), point walks,
and leaf-linked range scans.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from typing import Any

from repro.indexes.base import (
    IndexNode,
    assign_addresses,
    count_blocks,
    next_index_id,
)
from repro.mem.layout import Allocator


class BPlusTree:
    """A B+tree over integer-comparable keys.

    ``fanout`` is the maximum number of children of an internal node (and
    the maximum number of key/value pairs in a leaf). The paper's Table 2
    "Degree 5 (9 keys)" corresponds to ``fanout=9`` here with a minimum
    fill of 5.
    """

    def __init__(self, fanout: int = 9, allocator: Allocator | None = None) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.fanout = fanout
        self.index_id = next_index_id()
        self.allocator = allocator or Allocator()
        self._root: IndexNode = IndexNode(0, [], values=[])
        self._allocate(self._root)
        self._size = 0
        self.total_bytes = self._root.nbytes
        #: Callbacks fired as fn(lo, hi) when a structural change (node
        #: split / root growth) makes cached copies of that key range
        #: stale. Caches subscribe here to invalidate (Section 3.2's miss
        #: handler keeps the IX-cache coherent with dynamic indexes).
        self.on_structural_change: list = []
        self._dirty_ranges: list[tuple[Any, Any]] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def bulk_load(
        cls,
        items: Iterable[tuple[Any, Any]],
        fanout: int = 9,
        allocator: Allocator | None = None,
    ) -> "BPlusTree":
        """Build a tree from (key, value) pairs; keys need not be sorted."""
        tree = cls(fanout=fanout, allocator=allocator)
        pairs = sorted(items, key=lambda kv: kv[0])
        if not pairs:
            return tree
        keys = [k for k, _ in pairs]
        if any(keys[i] == keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("bulk_load requires distinct keys")

        leaves: list[IndexNode] = []
        for start in range(0, len(pairs), fanout):
            chunk = pairs[start : start + fanout]
            leaf = IndexNode(
                0,
                [k for k, _ in chunk],
                values=[v for _, v in chunk],
            )
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)

        level_nodes = leaves
        while len(level_nodes) > 1:
            parents: list[IndexNode] = []
            for start in range(0, len(level_nodes), fanout):
                group = level_nodes[start : start + fanout]
                separators = [child.lo for child in group[1:]]
                parent = IndexNode(
                    0,
                    separators,
                    children=list(group),
                    lo=group[0].lo,
                    hi=group[-1].hi,
                )
                parents.append(parent)
            level_nodes = parents

        tree._root = level_nodes[0]
        tree._size = len(pairs)
        tree._relevel()
        tree.total_bytes = assign_addresses(tree.nodes(), tree.allocator)
        return tree

    @staticmethod
    def fanout_for_depth(num_keys: int, depth: int) -> int:
        """Fan-out that gives roughly ``depth`` levels for ``num_keys`` keys."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if num_keys <= 1:
            return 2
        return max(2, round(num_keys ** (1.0 / depth)))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> IndexNode:
        return self._root

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root counts as 1)."""
        levels = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    def __len__(self) -> int:
        return self._size

    def walk(self, key: Any) -> list[IndexNode]:
        """The root-to-leaf node path a hardware walker would traverse."""
        path = [self._root]
        node = self._root
        while not node.is_leaf:
            node = node.child_for(key)
            path.append(node)
        return path

    def walk_from(self, node: IndexNode, key: Any) -> list[IndexNode]:
        """Continue a walk from an arbitrary (e.g. IX-cache-hit) node."""
        if not node.covers(key) and node is not self._root:
            raise ValueError(f"node {node!r} does not cover key {key!r}")
        path = [node]
        while not node.is_leaf:
            node = node.child_for(key)
            path.append(node)
        return path

    def get(self, key: Any, default: Any = None) -> Any:
        leaf = self.walk(key)[-1]
        for k, v in zip(leaf.keys, leaf.values):
            if k == key:
                return v
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def range_scan(self, lo: Any, hi: Any) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) with lo <= key <= hi via leaf links."""
        if lo > hi:
            return
        leaf = self.walk(lo)[-1]
        while leaf is not None:
            for k, v in zip(leaf.keys, leaf.values):
                if k > hi:
                    return
                if k >= lo:
                    yield k, v
            leaf = leaf.next_leaf

    def items(self) -> Iterator[tuple[Any, Any]]:
        leaf = self._leftmost_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next_leaf

    def nodes(self) -> Iterator[IndexNode]:
        """Breadth-first iteration over every node."""
        frontier = [self._root]
        while frontier:
            nxt: list[IndexNode] = []
            for node in frontier:
                yield node
                if node.children:
                    nxt.extend(node.children)
            frontier = nxt

    def level_nodes(self, level: int) -> list[IndexNode]:
        return [n for n in self.nodes() if n.level == level]

    def total_blocks(self) -> int:
        return count_blocks(self.nodes())

    # ------------------------------------------------------------------ #
    # Dynamic inserts
    # ------------------------------------------------------------------ #

    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite; splits full nodes on the way back up.

        Structural changes are reported through ``on_structural_change``
        so caches holding stale node ranges can invalidate.
        """
        self._dirty_ranges.clear()
        split = self._insert(self._root, key, value)
        if split is not None:
            sep, right = split
            old_root = self._root
            self._root = IndexNode(
                0,
                [sep],
                children=[old_root, right],
                lo=old_root.lo,
                hi=right.hi,
            )
            self._allocate(self._root)
            self._relevel()
        if self._dirty_ranges and self.on_structural_change:
            lo = min(r[0] for r in self._dirty_ranges)
            hi = max(r[1] for r in self._dirty_ranges)
            for callback in self.on_structural_change:
                callback(lo, hi)

    def _insert(self, node: IndexNode, key: Any, value: Any) -> tuple[Any, IndexNode] | None:
        if node.is_leaf:
            return self._insert_into_leaf(node, key, value)
        idx = bisect_right(node.keys, key)
        child = node.children[idx]
        split = self._insert(child, key, value)
        node.lo = node.children[0].lo
        node.hi = node.children[-1].hi
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        node.hi = node.children[-1].hi
        if len(node.children) <= self.fanout:
            return None
        return self._split_internal(node)

    def _insert_into_leaf(self, leaf: IndexNode, key: Any, value: Any) -> tuple[Any, IndexNode] | None:
        pos = 0
        while pos < len(leaf.keys) and leaf.keys[pos] < key:
            pos += 1
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            leaf.values[pos] = value
            return None
        leaf.keys.insert(pos, key)
        leaf.values.insert(pos, value)
        self._size += 1
        old_lo, old_hi = leaf.lo, leaf.hi
        leaf.lo, leaf.hi = leaf.keys[0], leaf.keys[-1]
        if len(leaf.keys) <= self.fanout:
            return None
        if old_lo is not None:
            self._dirty_ranges.append((min(old_lo, leaf.lo), max(old_hi, leaf.hi)))
        mid = len(leaf.keys) // 2
        right = IndexNode(leaf.level, leaf.keys[mid:], values=leaf.values[mid:])
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.lo, leaf.hi = leaf.keys[0], leaf.keys[-1]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        self._allocate(right)
        return right.lo, right

    def _split_internal(self, node: IndexNode) -> tuple[Any, IndexNode]:
        self._dirty_ranges.append((node.lo, node.hi))
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = IndexNode(
            node.level,
            node.keys[mid + 1 :],
            children=node.children[mid + 1 :],
        )
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        node.lo = node.children[0].lo
        node.hi = node.children[-1].hi
        right.lo = right.children[0].lo
        right.hi = right.children[-1].hi
        self._allocate(right)
        return sep, right

    # ------------------------------------------------------------------ #
    # Deletion
    # ------------------------------------------------------------------ #

    def delete(self, key: Any) -> bool:
        """Remove a key; rebalances by borrowing or merging.

        Returns True if the key existed. Merges are structural changes and
        fire ``on_structural_change`` like splits do.
        """
        self._dirty_ranges.clear()
        removed = self._delete(self._root, key)
        if removed:
            self._size -= 1
        # Shrink the root when it degenerates to a single child.
        while not self._root.is_leaf and len(self._root.children) == 1:
            self._dirty_ranges.append((self._root.lo, self._root.hi))
            self._root = self._root.children[0]
            self._relevel()
        if self._dirty_ranges and self.on_structural_change:
            los = [r[0] for r in self._dirty_ranges if r[0] is not None]
            his = [r[1] for r in self._dirty_ranges if r[1] is not None]
            if los and his:
                for callback in self.on_structural_change:
                    callback(min(los), max(his))
        return removed

    def _min_leaf_keys(self) -> int:
        return max(1, self.fanout // 2)

    def _min_children(self) -> int:
        return max(2, (self.fanout + 1) // 2)

    def _delete(self, node: IndexNode, key: Any) -> bool:
        if node.is_leaf:
            for i, k in enumerate(node.keys):
                if k == key:
                    node.keys.pop(i)
                    node.values.pop(i)
                    if node.keys:
                        node.lo, node.hi = node.keys[0], node.keys[-1]
                    else:
                        node.lo = node.hi = None
                    return True
            return False
        idx = bisect_right(node.keys, key)
        child = node.children[idx]
        removed = self._delete(child, key)
        if removed:
            self._rebalance(node, idx)
            if node.children:
                node.lo = node.children[0].lo
                node.hi = node.children[-1].hi
        return removed

    def _underflowing(self, node: IndexNode) -> bool:
        if node.is_leaf:
            return len(node.keys) < self._min_leaf_keys()
        return len(node.children) < self._min_children()

    def _rebalance(self, parent: IndexNode, idx: int) -> None:
        child = parent.children[idx]
        if not self._underflowing(child):
            return
        left = parent.children[idx - 1] if idx > 0 else None
        right = parent.children[idx + 1] if idx + 1 < len(parent.children) else None
        if left is not None and not self._would_underflow_after_lend(left):
            self._borrow_from_left(parent, idx)
        elif right is not None and not self._would_underflow_after_lend(right):
            self._borrow_from_right(parent, idx)
        elif left is not None:
            self._merge(parent, idx - 1)
        elif right is not None:
            self._merge(parent, idx)

    def _would_underflow_after_lend(self, node: IndexNode) -> bool:
        if node.is_leaf:
            return len(node.keys) - 1 < self._min_leaf_keys()
        return len(node.children) - 1 < self._min_children()

    def _borrow_from_left(self, parent: IndexNode, idx: int) -> None:
        left, child = parent.children[idx - 1], parent.children[idx]
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            # Rotate through the parent separator.
            moved = left.children.pop()
            child.children.insert(0, moved)
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
        self._refresh_bounds(left)
        self._refresh_bounds(child)

    def _borrow_from_right(self, parent: IndexNode, idx: int) -> None:
        child, right = parent.children[idx], parent.children[idx + 1]
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            moved = right.children.pop(0)
            child.children.append(moved)
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
        self._refresh_bounds(child)
        self._refresh_bounds(right)

    def _merge(self, parent: IndexNode, left_idx: int) -> None:
        """Merge children left_idx and left_idx+1 into one node."""
        left = parent.children[left_idx]
        right = parent.children[left_idx + 1]
        self._dirty_ranges.append((left.lo, right.hi))
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_idx)
        parent.children.pop(left_idx + 1)
        self._refresh_bounds(left)

    def _refresh_bounds(self, node: IndexNode) -> None:
        if node.is_leaf:
            if node.keys:
                node.lo, node.hi = node.keys[0], node.keys[-1]
        elif node.children:
            node.lo = node.children[0].lo
            node.hi = node.children[-1].hi

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _allocate(self, node: IndexNode) -> None:
        node.nbytes = max(node.byte_size(), 16)
        node.address = self.allocator.alloc_index(node.nbytes)

    def _relevel(self) -> None:
        """Renumber levels from the root after structural changes."""
        frontier = [self._root]
        level = 0
        while frontier:
            nxt: list[IndexNode] = []
            for node in frontier:
                node.level = level
                if node.children:
                    nxt.extend(node.children)
            frontier = nxt
            level += 1

    def _leftmost_leaf(self) -> IndexNode:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated.

        Used by the property-based tests: sorted keys in every node,
        children ranges nested inside parent ranges, uniform leaf depth,
        and leaf links covering all keys in order.
        """
        depths: set[int] = set()

        def visit(node: IndexNode, depth: int, lo: Any, hi: Any) -> None:
            assert node.keys == sorted(node.keys), "node keys unsorted"
            if node.lo is not None and lo is not None:
                assert node.lo >= lo, "child range escapes parent lo"
            if node.hi is not None and hi is not None:
                assert node.hi <= hi, "child range escapes parent hi"
            if node.is_leaf:
                depths.add(depth)
                assert len(node.keys) == len(node.values)
                return
            assert len(node.children) == len(node.keys) + 1, "key/child arity"
            bounds = [lo, *node.keys, hi]
            for i, child in enumerate(node.children):
                visit(child, depth + 1, bounds[i], bounds[i + 1])

        visit(self._root, 0, None, None)
        assert len(depths) <= 1, f"leaves at multiple depths: {depths}"
        linked = [k for k, _ in self.items()]
        assert linked == sorted(linked), "leaf chain out of order"
        assert len(linked) == self._size, "size mismatch with leaf chain"
