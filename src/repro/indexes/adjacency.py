"""Adjacency-list graph behind a vertex index — PageRank-push substrate.

Aurochs scans graph adjacency lists "in an unordered manner" (Table 2: Adj.
List, [key, degree]). With millions of vertices the vertex directory itself
is a multi-level index; we model it as a B+tree over vertex ids whose leaf
values carry (degree, edge-list address). Edge lists live in the DRAM data
region and are streamed once located.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import NamedTuple

from repro.indexes.base import IndexNode
from repro.indexes.bplustree import BPlusTree
from repro.mem.layout import Allocator
from repro.params import KEY_BYTES


class VertexRecord(NamedTuple):
    degree: int
    address: int
    neighbors: tuple[int, ...]


class AdjacencyList:
    """Graph with a B+tree vertex directory and data-region edge lists."""

    def __init__(
        self,
        edges: Iterable[tuple[int, int]],
        num_vertices: int | None = None,
        fanout: int = 9,
        allocator: Allocator | None = None,
    ) -> None:
        self.allocator = allocator or Allocator()
        adjacency: dict[int, list[int]] = {}
        max_vertex = -1
        for src, dst in edges:
            if src < 0 or dst < 0:
                raise ValueError(f"negative vertex id in edge ({src}, {dst})")
            adjacency.setdefault(src, []).append(dst)
            max_vertex = max(max_vertex, src, dst)
        self.num_vertices = num_vertices if num_vertices is not None else max_vertex + 1
        if max_vertex >= self.num_vertices:
            raise ValueError(f"edge references vertex {max_vertex} >= {self.num_vertices}")
        records = []
        self.num_edges = 0
        for v in sorted(adjacency):
            neighbors = tuple(sorted(adjacency[v]))
            self.num_edges += len(neighbors)
            address = self.allocator.alloc_data(max(1, len(neighbors)) * KEY_BYTES)
            records.append((v, VertexRecord(len(neighbors), address, neighbors)))
        self._tree = BPlusTree.bulk_load(records, fanout=fanout, allocator=self.allocator)
        self.index_id = self._tree.index_id

    @property
    def root(self) -> IndexNode:
        return self._tree.root

    @property
    def height(self) -> int:
        return self._tree.height

    def walk(self, vertex: int) -> list[IndexNode]:
        return self._tree.walk(vertex)

    def walk_from(self, node: IndexNode, vertex: int) -> list[IndexNode]:
        return self._tree.walk_from(node, vertex)

    def nodes(self) -> Iterator[IndexNode]:
        return self._tree.nodes()

    def neighbors(self, vertex: int) -> tuple[int, ...]:
        record = self._tree.get(vertex)
        return record.neighbors if record is not None else ()

    def degree(self, vertex: int) -> int:
        record = self._tree.get(vertex)
        return record.degree if record is not None else 0

    def record(self, vertex: int) -> VertexRecord | None:
        return self._tree.get(vertex)

    # ------------------------------------------------------------------ #
    # Reference algorithms (functional semantics for tests/examples)
    # ------------------------------------------------------------------ #

    def pagerank_push(
        self, damping: float = 0.85, iterations: int = 20
    ) -> list[float]:
        """Push-style PageRank over the adjacency index."""
        n = self.num_vertices
        if n == 0:
            return []
        rank = [1.0 / n] * n
        for _ in range(iterations):
            nxt = [(1.0 - damping) / n] * n
            dangling = 0.0
            for v in range(n):
                record = self._tree.get(v)
                if record is None or record.degree == 0:
                    dangling += rank[v]
                    continue
                share = damping * rank[v] / record.degree
                for u in record.neighbors:
                    nxt[u] += share
            spread = damping * dangling / n
            rank = [r + spread for r in nxt]
        return rank
