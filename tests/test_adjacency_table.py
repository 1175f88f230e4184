"""Tests for the adjacency-list graph and the array-backed record table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.indexes.adjacency import AdjacencyList
from repro.indexes.soa import SoARecordTable


EDGES = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 1)]


class TestAdjacency:
    def test_neighbors(self):
        g = AdjacencyList(EDGES)
        assert g.neighbors(0) == (1, 2)
        assert g.neighbors(3) == (1,)
        assert g.neighbors(5) == ()

    def test_degree(self):
        g = AdjacencyList(EDGES)
        assert g.degree(0) == 2
        assert g.degree(4) == 0

    def test_counts(self):
        g = AdjacencyList(EDGES)
        assert g.num_vertices == 4
        assert g.num_edges == 5

    def test_explicit_vertex_count(self):
        g = AdjacencyList(EDGES, num_vertices=10)
        assert g.num_vertices == 10

    def test_vertex_overflow_rejected(self):
        with pytest.raises(ValueError):
            AdjacencyList([(0, 5)], num_vertices=3)

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            AdjacencyList([(-1, 0)])

    def test_walk_reaches_vertex_record(self):
        edges = [(v, (v + 1) % 50) for v in range(50)]
        g = AdjacencyList(edges, fanout=3)
        leaf = g.walk(25)[-1]
        assert leaf.is_leaf
        assert 25 in leaf.keys

    def test_edge_lists_in_data_region(self):
        from repro.mem.layout import Allocator

        g = AdjacencyList(EDGES)
        assert g.record(0).address >= Allocator.DATA_BASE

    def test_pagerank_sums_to_one(self):
        edges = [(v, (v * 3 + 1) % 30) for v in range(30)]
        g = AdjacencyList(edges)
        ranks = g.pagerank_push(iterations=30)
        assert sum(ranks) == pytest.approx(1.0, abs=1e-6)
        assert all(r > 0 for r in ranks)

    def test_pagerank_hub_ranks_higher(self):
        # Everyone points at vertex 0.
        edges = [(v, 0) for v in range(1, 20)]
        g = AdjacencyList(edges, num_vertices=20)
        ranks = g.pagerank_push(iterations=30)
        assert ranks[0] == max(ranks)

    def test_pagerank_empty_graph(self):
        g = AdjacencyList([], num_vertices=0)
        assert g.pagerank_push() == []


def make_table(n=100, fanout=4):
    ids = np.arange(n, dtype=np.int64)
    return SoARecordTable(("id", "value"), "id",
                          {"id": ids, "value": ids * 3}, fanout=fanout)


def fk_table(fks):
    return SoARecordTable(
        ("id", "fk"), "id",
        {"id": np.arange(len(fks), dtype=np.int64),
         "fk": np.asarray(fks, dtype=np.int64)},
    )


class TestRecordTable:
    def test_get(self):
        t = make_table()
        assert t.get(42) == {"id": 42, "value": 126}
        assert t.get(1000) is None

    def test_key_column_validated(self):
        ids = np.arange(3, dtype=np.int64)
        with pytest.raises(ValueError):
            SoARecordTable(("a", "b"), "missing", {"a": ids, "b": ids})

    def test_missing_columns_rejected(self):
        with pytest.raises(ValueError):
            SoARecordTable(("id", "value"), "id",
                           {"id": np.arange(3, dtype=np.int64)})

    def test_insert(self):
        """Tables are bulk-loaded and read-only; a mutating index is a
        BPlusTree, and the refusal says so."""
        t = make_table(10)
        with pytest.raises(NotImplementedError, match="BPlusTree"):
            t.insert({"id": 70, "value": 1})
        assert len(t) == 10
        assert t.get(70) is None

    def test_select_range(self):
        t = make_table()
        got = [r["id"] for r in t.select_range(10, 14)]
        assert got == [10, 11, 12, 13, 14]

    def test_where_predicate(self):
        t = make_table(20)
        evens = list(t.where(lambda r: r["value"] % 2 == 0))
        assert all(r["value"] % 2 == 0 for r in evens)
        # value = 3k is even exactly when k is even.
        assert len(evens) == 10

    def test_join(self):
        left = fk_table([i * 2 for i in range(10)])
        right = make_table(30)
        joined = list(left.join(right, "fk"))
        assert len(joined) == 10
        for l, r in joined:
            assert l["fk"] == r["id"]

    def test_join_missing_keys_skipped(self):
        left = fk_table([999])
        right = make_table(10)
        assert list(left.join(right, "fk")) == []

    def test_scan_order(self):
        t = make_table(50)
        assert [r["id"] for r in t.scan()] == list(range(50))

    def test_record_address_in_data_region(self):
        from repro.mem.layout import Allocator

        t = make_table(10)
        assert t.record_address(3) >= Allocator.DATA_BASE
        assert t.record_address(99) is None

    def test_walk_surface(self):
        t = make_table(200, fanout=3)
        path = t.walk(150)
        assert path[-1].is_leaf
        assert t.height == len(path)


@settings(max_examples=25, deadline=None)
@given(edges=st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    min_size=1, max_size=100,
))
def test_property_adjacency_matches_dict(edges):
    g = AdjacencyList(edges)
    expected: dict[int, list[int]] = {}
    for s, d in edges:
        expected.setdefault(s, []).append(d)
    for v, neighbors in expected.items():
        assert g.neighbors(v) == tuple(sorted(neighbors))
