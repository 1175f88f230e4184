"""Structure-of-arrays B+tree storage for paper-scale indexes.

The object-path :class:`~repro.indexes.bplustree.BPlusTree` spends
roughly 500-700 bytes of Python overhead per node (an ``IndexNode``,
its boxed key list, its child list), which caps practical tree sizes
two orders of magnitude below the paper's 10M-400M keys. This module
stores the same tree as a handful of numpy arrays per level — ``lo``,
``hi``, ``nbytes``, ``address`` — plus the one shared sorted key array,
so a 10M-key tree costs a few hundred MB instead of tens of GB.

The cache models never see the arrays. They see :class:`SoANode` views
that quack exactly like ``IndexNode`` (``level``/``lo``/``hi``/``keys``/
``children``/``values``/``address``/``nbytes``/``next_leaf``/
``covers``/``child_for``), created lazily per visited node and memoized
so the ``is``-identity contracts of the IX-/X-cache hold (a cached node
and a re-walked node must be the same object). A walk materializes at
most ``height`` views; cold nodes stay as array rows.

Layout is a byte-exact replica of the object path. ``bulk_load`` there
allocates: a 16-byte burn for the pre-bulk-load root, then every node
in BFS order via ``assign_addresses`` (``nbytes = byte_size()``, each
address 64-byte aligned). Because all addresses are aligned, node ``i+1``
lands at ``addr_i + align64(nbytes_i)`` — a cumulative sum — so the SoA
build issues ONE allocator call for the whole span and computes the
per-node addresses vectorized. ``tests/test_soa_backend.py`` pins node
geometry, addresses and walk paths against ``BPlusTree``; the committed
goldens pin every `RunResult` built over these trees across releases.

Geometry recap (mirrors ``BPlusTree.bulk_load``): leaves take ``fanout``
keys left to right; each upper level groups ``fanout`` children, its
separators are the ``lo`` of every child but the first; root has level
0, leaves level ``height - 1``; a tree of at most ``fanout`` keys is a
single root leaf.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.indexes.base import next_index_id
from repro.mem.layout import Allocator, align_up
from repro.params import BLOCK_SIZE, KEY_BYTES, PTR_BYTES

#: SoA node_ids live far above the object-graph ``itertools.count`` ids so
#: SoA and object-graph indexes can share TouchFilter/occupancy sets
#: without collision: index i's nodes occupy [(i+1) << 44, (i+2) << 44).
_NODE_ID_SHIFT = 44


@dataclass
class _Level:
    """Per-level column store: one row per node, left to right."""

    lo: np.ndarray        # smallest key reachable through node j
    hi: np.ndarray        # largest key reachable through node j
    counts: np.ndarray    # children per internal node / keys per leaf
    nbytes: np.ndarray    # byte_size(), exactly as assign_addresses sets it
    address: np.ndarray   # 64B-aligned DRAM address

    def __len__(self) -> int:
        return len(self.lo)


class SoANode:
    """Lazy ``IndexNode``-shaped view over one row of a :class:`_Level`.

    Views are memoized by the owning tree, so two walks reaching the
    same node get the same object — the identity the IX-cache's
    set-partition bookkeeping and METAL's leaf-peek depend on.
    """

    __slots__ = (
        "_tree", "_pos", "_keys", "_children", "_values",
        "node_id", "level", "lo", "hi", "address", "nbytes",
    )

    def __init__(self, tree: "SoABPlusTree", level: int, pos: int) -> None:
        row = tree._levels[level]
        self._tree = tree
        self._pos = pos
        self._keys: list | None = None
        self._children: list | None = None
        self._values: list | None = None
        self.level = level
        self.node_id = tree._node_id_base + tree._level_offsets[level] + pos
        self.lo = int(row.lo[pos])
        self.hi = int(row.hi[pos])
        self.address = int(row.address[pos])
        self.nbytes = int(row.nbytes[pos])

    @property
    def is_leaf(self) -> bool:
        return self.level == self._tree.height - 1

    @property
    def keys(self) -> list[int]:
        if self._keys is None:
            tree = self._tree
            if self.is_leaf:
                start = self._pos * tree.fanout
                count = int(tree._levels[self.level].counts[self._pos])
                self._keys = tree._keys[start : start + count].tolist()
            else:
                self._keys = self._separators().tolist()
        return self._keys

    @property
    def children(self) -> "list[SoANode] | None":
        if self.is_leaf:
            return None
        if self._children is None:
            tree = self._tree
            start = self._pos * tree.fanout
            count = int(tree._levels[self.level].counts[self._pos])
            self._children = [
                tree._view(self.level + 1, start + i) for i in range(count)
            ]
        return self._children

    @property
    def values(self) -> list[Any] | None:
        if not self.is_leaf:
            return None
        if self._values is None:
            tree = self._tree
            start = self._pos * tree.fanout
            count = int(tree._levels[self.level].counts[self._pos])
            self._values = [tree._value(start + i) for i in range(count)]
        return self._values

    @property
    def next_leaf(self) -> "SoANode | None":
        if not self.is_leaf:
            return None
        nxt = self._pos + 1
        if nxt >= len(self._tree._levels[self.level]):
            return None
        return self._tree._view(self.level, nxt)

    def byte_size(self) -> int:
        return self.nbytes

    def covers(self, key: Any) -> bool:
        return self.lo <= key <= self.hi

    def child_for(self, key: Any) -> "SoANode":
        if self.is_leaf:
            raise TypeError("leaf nodes have no children")
        idx = int(np.searchsorted(self._separators(), key, side="right"))
        return self._tree._view(self.level + 1, self._pos * self._tree.fanout + idx)

    def _separators(self) -> np.ndarray:
        """Child lo-bounds past the first — ``bulk_load``'s separator keys."""
        tree = self._tree
        start = self._pos * tree.fanout
        count = int(tree._levels[self.level].counts[self._pos])
        return tree._levels[self.level + 1].lo[start + 1 : start + count]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "node"
        return f"<soa-{kind} L{self.level} [{self.lo}..{self.hi}] #{self.node_id}>"


class SoABPlusTree:
    """Read-only B+tree over a sorted key array, stored as per-level arrays.

    ``values`` maps a key's row index to its stored value (the record
    tuple for tables); it is called lazily, so the tree itself holds no
    per-key Python objects. Mutating indexes use
    :class:`~repro.indexes.bplustree.BPlusTree`: :meth:`insert` and
    :meth:`delete` raise.
    """

    def __init__(
        self,
        keys: np.ndarray,
        fanout: int = 9,
        allocator: Allocator | None = None,
        values: Callable[[int], Any] | None = None,
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if len(keys) == 0:
            raise ValueError("SoA B+tree requires a non-empty key set")
        if len(keys) > 1 and not (np.diff(keys) > 0).all():
            raise ValueError("SoA B+tree requires strictly increasing keys")
        self.fanout = fanout
        self.index_id = next_index_id()
        self.allocator = allocator or Allocator()
        self._keys = keys
        self._size = len(keys)
        self._value_fn = values if values is not None else (lambda i: None)
        self.on_structural_change: list = []
        self._views: dict[int, SoANode] = {}
        # The object path's __init__ allocates a 16B empty root that
        # bulk_load later abandons; replicate the burn so every
        # subsequent index address matches.
        self.allocator.alloc_index(16)
        self._levels = self._build_levels(keys, fanout)
        self._node_id_base = (self.index_id + 1) << _NODE_ID_SHIFT
        self._level_offsets = np.concatenate(
            ([0], np.cumsum([len(lvl) for lvl in self._levels[:-1]]))
        ).tolist()
        self.total_bytes = self._assign_addresses()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def _build_levels(keys: np.ndarray, fanout: int) -> list[_Level]:
        n = len(keys)
        n_leaves = -(-n // fanout)
        starts = np.arange(n_leaves, dtype=np.int64) * fanout
        ends = np.minimum(starts + fanout, n)
        counts = ends - starts
        leaves = _Level(
            lo=keys[starts],
            hi=keys[ends - 1],
            counts=counts,
            # Leaf byte_size: count keys + count value pointers.
            nbytes=counts * (KEY_BYTES + PTR_BYTES),
            address=np.zeros(n_leaves, dtype=np.int64),
        )
        levels = [leaves]
        while len(levels[0]) > 1:
            below = levels[0]
            m = len(below)
            n_nodes = -(-m // fanout)
            starts = np.arange(n_nodes, dtype=np.int64) * fanout
            ends = np.minimum(starts + fanout, m)
            counts = ends - starts
            levels.insert(
                0,
                _Level(
                    lo=below.lo[starts],
                    hi=below.hi[ends - 1],
                    counts=counts,
                    # Internal byte_size: (count-1) separators + count ptrs.
                    nbytes=(2 * counts - 1) * KEY_BYTES,
                    address=np.zeros(n_nodes, dtype=np.int64),
                ),
            )
        return levels

    def _assign_addresses(self) -> int:
        """Vectorized replica of ``assign_addresses`` over BFS order.

        Every object-path address is 64B-aligned, so consecutive nodes
        sit ``align64(nbytes)`` apart; one allocator call for the whole
        span lands the region cursor exactly where the per-node loop
        leaves it (last node's address + its unaligned byte_size).
        """
        nbytes = np.concatenate([lvl.nbytes for lvl in self._levels])
        aligned = (nbytes + (BLOCK_SIZE - 1)) // BLOCK_SIZE * BLOCK_SIZE
        span = int(aligned.sum() - aligned[-1] + nbytes[-1])
        base = self.allocator.alloc_index(span)
        offsets = base + np.concatenate(([0], np.cumsum(aligned[:-1])))
        pos = 0
        for lvl in self._levels:
            lvl.address = offsets[pos : pos + len(lvl)]
            pos += len(lvl)
        return int(nbytes.sum())

    # ------------------------------------------------------------------ #
    # Node views
    # ------------------------------------------------------------------ #

    def _view(self, level: int, pos: int) -> SoANode:
        linear = self._level_offsets[level] + pos
        node = self._views.get(linear)
        if node is None:
            node = SoANode(self, level, pos)
            self._views[linear] = node
        return node

    def _value(self, row: int) -> Any:
        return self._value_fn(row)

    # ------------------------------------------------------------------ #
    # Queries (IndexNode-walker contract)
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> SoANode:
        return self._view(0, 0)

    @property
    def height(self) -> int:
        return len(self._levels)

    def __len__(self) -> int:
        return self._size

    def walk(self, key: Any) -> list[SoANode]:
        node = self.root
        path = [node]
        while not node.is_leaf:
            node = node.child_for(key)
            path.append(node)
        return path

    def walk_from(self, node: SoANode, key: Any) -> list[SoANode]:
        if not node.covers(key) and node is not self.root:
            raise ValueError(f"node {node!r} does not cover key {key!r}")
        path = [node]
        while not node.is_leaf:
            node = node.child_for(key)
            path.append(node)
        return path

    def batch_positions(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`walk`: per-level positions for a key chunk.

        Returns a ``(len(keys), height)`` int64 array whose row ``i``
        holds the position of every node ``walk(keys[i])`` visits, one
        ``searchsorted`` per level over the SoA ``lo`` columns instead of
        one per (key, node). Equivalent to the scalar ``child_for``
        because each level's ``lo`` column is strictly increasing and a
        parent's separator array is exactly its child window of that
        column: the scalar pick ``start + searchsorted(separators, key,
        'right')`` equals the global "last node with lo <= key" clamped
        into the window (keys below the window route to its first child,
        keys beyond it to its last).
        """
        levels = self._levels
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        fanout = self.fanout
        out = np.zeros((len(keys), len(levels)), dtype=np.int64)
        pos = out[:, 0]
        for level in range(len(levels) - 1):
            start = pos * fanout
            last = start + levels[level].counts[pos] - 1
            g = np.searchsorted(levels[level + 1].lo, keys, side="right") - 1
            pos = np.clip(g, start, last)
            out[:, level + 1] = pos
        return out

    def _row_of(self, key: Any) -> int | None:
        idx = int(np.searchsorted(self._keys, key))
        if idx < self._size and int(self._keys[idx]) == key:
            return idx
        return None

    def get(self, key: Any, default: Any = None) -> Any:
        row = self._row_of(key)
        return self._value(row) if row is not None else default

    def __contains__(self, key: Any) -> bool:
        return self._row_of(key) is not None

    def range_scan(self, lo: Any, hi: Any) -> Iterator[tuple[int, Any]]:
        if lo > hi:
            return
        start = int(np.searchsorted(self._keys, lo, side="left"))
        end = int(np.searchsorted(self._keys, hi, side="right"))
        for row in range(start, end):
            yield int(self._keys[row]), self._value(row)

    def items(self) -> Iterator[tuple[int, Any]]:
        for row in range(self._size):
            yield int(self._keys[row]), self._value(row)

    def nodes(self) -> Iterator[SoANode]:
        """BFS over every node — materializes all views; test-scale only."""
        for level, lvl in enumerate(self._levels):
            for pos in range(len(lvl)):
                yield self._view(level, pos)

    def level_nodes(self, level: int) -> list[SoANode]:
        return [self._view(level, pos) for pos in range(len(self._levels[level]))]

    def total_blocks(self) -> int:
        return self.total_blocks_fast()

    def total_blocks_fast(self) -> int:
        """Distinct 64B blocks without materializing node views.

        Valid because every address is 64B-aligned (nodes never share a
        block), so each node spans exactly ``align64(nbytes) / 64``
        blocks of its own — the same count ``count_blocks`` derives.
        """
        total = 0
        for lvl in self._levels:
            aligned = (lvl.nbytes + (BLOCK_SIZE - 1)) // BLOCK_SIZE
            total += int(aligned.sum())
        return total

    # ------------------------------------------------------------------ #
    # Mutation (unsupported by design)
    # ------------------------------------------------------------------ #

    def insert(self, key: Any, value: Any) -> None:
        raise NotImplementedError(
            "SoA B+tree is read-only (bulk-loaded); use BPlusTree "
            "for a mutating index"
        )

    def delete(self, key: Any) -> bool:
        raise NotImplementedError(
            "SoA B+tree is read-only (bulk-loaded); use BPlusTree "
            "for a mutating index"
        )


class SoARecordTable:
    """A read-only table of records indexed by an integer primary key.

    Gorgon runs declarative operators (map/filter, SELECT, WHERE, JOIN)
    over such tables: records live in the DRAM data region and the
    primary key is indexed by a B+tree whose leaves point at them, which
    is what the Scan / Analytics / JOIN workloads walk. Columns are
    numpy arrays; records materialize as dicts only when a relational
    operator asks for one. Allocation order is fixed — a burned index id
    and 16B root, all record data, then the bulk-loaded tree — because
    every committed golden was recorded with that address layout.
    """

    def __init__(
        self,
        columns: tuple[str, ...],
        key_column: str,
        arrays: dict[str, np.ndarray],
        fanout: int = 9,
        allocator: Allocator | None = None,
    ) -> None:
        if key_column not in columns:
            raise ValueError(f"key column {key_column!r} not in {columns}")
        missing = set(columns) - set(arrays)
        if missing:
            raise ValueError(f"arrays missing columns {sorted(missing)}")
        self.columns = columns
        self.key_column = key_column
        self.allocator = allocator or Allocator()
        self._fanout = fanout
        self._arrays = {
            name: np.ascontiguousarray(arrays[name]) for name in columns
        }
        self.record_bytes = 16 * len(columns)
        keys = np.ascontiguousarray(self._arrays[key_column], dtype=np.int64)
        lengths = {name: len(a) for name, a in self._arrays.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged column lengths: {lengths}")
        # Burn one index id and a 16B root before the records: every
        # committed golden was recorded with this allocation layout, and
        # index ids feed the X-cache port hash.
        next_index_id()
        self.allocator.alloc_index(16)
        # Records: record_bytes per record in key order; 64B alignment
        # makes that a fixed stride, so one span allocation gives every
        # address and the final cursor.
        n = len(keys)
        self._record_stride = align_up(self.record_bytes, BLOCK_SIZE)
        self._data_base = self.allocator.alloc_data(
            self._record_stride * (n - 1) + self.record_bytes
        )
        self._tree = SoABPlusTree(
            keys, fanout=fanout, allocator=self.allocator, values=self._stored,
        )
        self.index_id = self._tree.index_id

    def _stored(self, row: int) -> tuple[int, dict[str, Any]]:
        """(address, record) — the value a leaf holds for ``row``."""
        return self._address_of(row), self._record(row)

    def _address_of(self, row: int) -> int:
        return self._data_base + self._record_stride * row

    def _record(self, row: int) -> dict[str, Any]:
        return {name: int(self._arrays[name][row]) for name in self.columns}

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def height(self) -> int:
        return self._tree.height

    @property
    def root(self) -> SoANode:
        return self._tree.root

    @property
    def on_structural_change(self) -> list:
        return self._tree.on_structural_change

    def walk(self, key: int) -> list[SoANode]:
        return self._tree.walk(key)

    def walk_from(self, node: SoANode, key: int) -> list[SoANode]:
        return self._tree.walk_from(node, key)

    def nodes(self) -> Iterator[SoANode]:
        return self._tree.nodes()

    def total_blocks_fast(self) -> int:
        return self._tree.total_blocks_fast()

    # ------------------------------------------------------------------ #
    # Relational operators (functional semantics)
    # ------------------------------------------------------------------ #

    def get(self, key: int) -> dict[str, Any] | None:
        row = self._tree._row_of(key)
        return self._record(row) if row is not None else None

    def record_address(self, key: int) -> int | None:
        row = self._tree._row_of(key)
        return self._address_of(row) if row is not None else None

    def select_range(self, lo: int, hi: int) -> Iterator[dict[str, Any]]:
        """SELECT * WHERE key BETWEEN lo AND hi (index range scan)."""
        for _, (_, record) in self._tree.range_scan(lo, hi):
            yield record

    def where(self, predicate: Callable[[dict[str, Any]], bool]) -> Iterator[dict[str, Any]]:
        """Full-scan filter (the WHERE clause over a non-key column)."""
        for _, (_, record) in self._tree.items():
            if predicate(record):
                yield record

    def join(
        self, other: Any, column: str
    ) -> Iterator[tuple[dict[str, Any], dict[str, Any]]]:
        """Index nested-loop join: probe ``other``'s key index per record."""
        for _, (_, record) in self._tree.items():
            matched = other.get(record[column])
            if matched is not None:
                yield record, matched

    def scan(self) -> Iterator[dict[str, Any]]:
        for row in range(len(self._tree)):
            yield self._record(row)

    def insert(self, record: dict[str, Any]) -> None:
        raise NotImplementedError(
            "record tables are read-only (bulk-loaded); use BPlusTree "
            "for a mutating index"
        )


__all__ = ["SoABPlusTree", "SoANode", "SoARecordTable"]
