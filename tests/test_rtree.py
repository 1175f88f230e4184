"""Tests for the paired-B-tree R-tree and spatial semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.indexes.rtree import Rect, RTree2D


def rects_grid(n=20, size=10, gap=50):
    return [
        Rect(i, i * gap, i * gap + size, (i * 7) % 500, (i * 7) % 500 + size)
        for i in range(n)
    ]


class TestRect:
    def test_contains(self):
        r = Rect(0, 0, 10, 0, 10)
        assert r.contains(5, 5)
        assert r.contains(0, 10)
        assert not r.contains(11, 5)

    def test_intersects(self):
        a = Rect(0, 0, 10, 0, 10)
        b = Rect(1, 5, 15, 5, 15)
        c = Rect(2, 20, 30, 20, 30)
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 10, 0, 0, 10)


class TestRTree:
    def test_builds_two_trees(self):
        rt = RTree2D(rects_grid())
        assert rt.x_tree.height >= 1
        assert rt.y_tree.height >= 1
        assert len(rt) == 20

    def test_duplicate_ids_rejected(self):
        r = Rect(1, 0, 1, 0, 1)
        with pytest.raises(ValueError):
            RTree2D([r, r])

    def test_query_point_finds_containing(self):
        rt = RTree2D(rects_grid())
        hits = rt.query_point(5, 5)
        assert [r.rect_id for r in hits] == [0]

    def test_query_point_empty(self):
        rt = RTree2D(rects_grid())
        assert rt.query_point(25, 25) == []

    def test_query_window(self):
        rt = RTree2D(rects_grid(gap=50, size=10))
        window = Rect(99, 0, 60, 0, 600)
        hits = rt.query_window(window)
        assert all(r.intersects(window) for r in hits)
        assert len(hits) >= 1

    def test_correlated_y_keys(self):
        rt = RTree2D(rects_grid())
        ys = rt.correlated_y_keys(0, window=0)
        assert ys == [rects_grid()[0].y_lo]

    def test_walks_reach_leaves(self):
        rt = RTree2D(rects_grid(n=100))
        assert rt.x_tree.walk(250)[-1].is_leaf
        assert rt.y_tree.walk(49)[-1].is_leaf

    def test_nodes_iterates_both_trees(self):
        rt = RTree2D(rects_grid())
        x_ids = {n.node_id for n in rt.x_tree.nodes()}
        all_ids = {n.node_id for n in rt.nodes()}
        assert x_ids < all_ids


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 20),
                  st.integers(0, 500), st.integers(1, 20)),
        min_size=1, max_size=50, unique_by=lambda t: t[0],
    ),
    px=st.integers(0, 520), py=st.integers(0, 520),
)
def test_property_query_point_matches_bruteforce(data, px, py):
    rects = [
        Rect(i, x, x + w, y, y + h) for i, (x, w, y, h) in enumerate(data)
    ]
    rt = RTree2D(rects)
    expected = sorted(
        (r.rect_id for r in rects if r.contains(px, py))
    )
    got = [r.rect_id for r in rt.query_point(px, py)]
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 20),
                  st.integers(0, 500), st.integers(1, 20)),
        min_size=1, max_size=50, unique_by=lambda t: t[0],
    ),
    wx=st.integers(0, 480), wy=st.integers(0, 480),
    ww=st.integers(1, 40), wh=st.integers(1, 40),
)
def test_property_query_window_matches_bruteforce(data, wx, wy, ww, wh):
    rects = [
        Rect(i, x, x + w, y, y + h) for i, (x, w, y, h) in enumerate(data)
    ]
    rt = RTree2D(rects)
    window = Rect(999, wx, wx + ww, wy, wy + wh)
    assert rt.query_window(window) == rt.query_window_bruteforce(window)
