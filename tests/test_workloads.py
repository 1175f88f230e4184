"""Tests for the workload generators and the Table-2 suite."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.graphs import powerlaw_edges
from repro.workloads.keygen import (
    clustered_stream,
    range_queries,
    uniform_stream,
    zipf_stream,
)
from repro.workloads.matrices import banded_coo, inner_product_rows, powerlaw_coo
from repro.workloads.spatial import clustered_rects
from repro.workloads.suite import (
    PAPER_LABELS,
    WORKLOAD_BUILDERS,
    build_workload,
)


class TestKeygen:
    def test_uniform_in_range(self):
        keys = uniform_stream(100, 1_000, seed=1)
        assert len(keys) == 1_000
        assert all(0 <= k < 100 for k in keys)

    def test_zipf_skew_concentrates(self):
        from collections import Counter

        flat = Counter(zipf_stream(1_000, 5_000, skew=0.0, seed=1))
        skewed = Counter(zipf_stream(1_000, 5_000, skew=1.2, seed=1))
        assert skewed.most_common(1)[0][1] > flat.most_common(1)[0][1]

    def test_zipf_deterministic(self):
        assert zipf_stream(100, 50, seed=9) == zipf_stream(100, 50, seed=9)

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_stream(0, 10)
        with pytest.raises(ValueError):
            zipf_stream(10, 10, skew=-1)

    def test_clustered_stays_near_centers(self):
        keys = clustered_stream(1 << 20, 2_000, num_clusters=4, seed=3)
        assert all(0 <= k < (1 << 20) for k in keys)
        # Consecutive keys are much closer than random ones would be.
        gaps = [abs(a - b) for a, b in zip(keys, keys[1:])]
        assert sorted(gaps)[len(gaps) // 2] < (1 << 20) // 16

    def test_range_queries_bounded(self):
        for lo, hi in range_queries(1_000, 100, span=10, seed=2):
            assert 0 <= lo <= hi < 1_000
            assert hi - lo <= 10


class TestMatrices:
    def test_powerlaw_coo_valid(self):
        triples = powerlaw_coo((50, 60), 500, seed=1)
        assert all(0 <= r < 50 and 0 <= c < 60 for r, c, _ in triples)
        coords = [(r, c) for r, c, _ in triples]
        assert len(coords) == len(set(coords))

    def test_banded_structure(self):
        triples = banded_coo((30, 30), bandwidth=2, density=1.0, seed=1)
        assert all(abs(r - c) <= 2 for r, c, _ in triples)

    def test_inner_rows_band_locality(self):
        rows = inner_product_rows(100, 8, 1_000, bandwidth=50, seed=1)
        # Consecutive rows must share columns (that is the reuse).
        shared = 0
        for a, b in zip(rows, rows[1:]):
            shared += len({c for c, _ in a} & {c for c, _ in b})
        assert shared > 0

    def test_inner_rows_shapes(self):
        rows = inner_product_rows(10, 5, 100, seed=2)
        assert len(rows) == 10
        for row in rows:
            assert all(0 <= c < 100 for c, _ in row)


class TestSpatialGraphs:
    def test_rects_unique_x_anchors(self):
        rects = clustered_rects(500, seed=4)
        xs = [r.x_lo for r in rects]
        assert len(xs) == len(set(xs))

    def test_rects_within_universe(self):
        rects = clustered_rects(200, universe=10_000, seed=4)
        for r in rects:
            assert 0 <= r.x_lo <= r.x_hi < 10_000
            assert 0 <= r.y_lo <= r.y_hi < 10_000

    def test_powerlaw_graph_hubby(self):
        from collections import Counter

        edges = powerlaw_edges(500, 5_000, skew=1.0, seed=5)
        indeg = Counter(d for _, d in edges)
        top = indeg.most_common(1)[0][1]
        assert top > 5_000 / 500 * 3  # far above the mean in-degree

    def test_no_self_loops(self):
        edges = powerlaw_edges(100, 1_000, seed=6)
        assert all(s != d for s, d in edges)


class TestSuite:
    def test_registry_complete(self):
        assert set(WORKLOAD_BUILDERS) == set(PAPER_LABELS)
        assert len(WORKLOAD_BUILDERS) == 10

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_workload("nope")

    def test_scan_backend_accepts_only_the_array_store(self):
        """scan's ``backend`` argument survives for callers that pass
        ``"soa"``; it builds the default workload, and nothing else is
        accepted."""
        soa = build_workload("scan", scale=0.01, backend="soa")
        default = build_workload("scan", scale=0.01)
        assert [r.key for r in soa.requests] == [r.key for r in default.requests]
        assert soa.total_index_blocks == default.total_index_blocks
        with pytest.raises(ValueError, match="backend"):
            build_workload("scan", scale=0.01, backend="btree")
        with pytest.raises(TypeError):
            build_workload("select", scale=0.01, backend="soa")

    @pytest.mark.parametrize("name", sorted(WORKLOAD_BUILDERS))
    def test_builds_and_walks(self, name):
        wl = build_workload(name, scale=0.05)
        assert wl.name == name
        assert len(wl.requests) > 0
        assert wl.total_index_blocks > 0
        # Every request's key must be walkable on its index.
        req = wl.requests[0]
        path = req.index.walk(req.key)
        assert len(path) >= 1

    def test_scale_grows_workload(self):
        small = build_workload("scan", scale=0.05)
        large = build_workload("scan", scale=0.2)
        assert len(large.requests) > len(small.requests)

    def test_descriptor_factory_returns_fresh(self):
        wl = build_workload("scan", scale=0.05)
        a, b = wl.descriptor_factory(), wl.descriptor_factory()
        assert a is not b

    def test_deep_vs_shallow_heights(self):
        deep = build_workload("spmm", scale=0.1)
        shallow = build_workload("spmm_s", scale=0.1)
        assert deep.indexes[0].height > shallow.indexes[0].height

    def test_faopt_pairs_align_with_requests(self):
        wl = build_workload("join", scale=0.05)
        pairs = wl.faopt_pairs()
        assert len(pairs) == len(wl.requests)
        assert pairs[0][1] == wl.requests[0].key

    def test_seed_determinism(self):
        a = build_workload("scan", scale=0.05, seed=3)
        b = build_workload("scan", scale=0.05, seed=3)
        assert [r.key for r in a.requests] == [r.key for r in b.requests]


@settings(max_examples=10, deadline=None)
@given(skew=st.floats(0.0, 1.5), seed=st.integers(0, 100))
def test_property_zipf_keys_in_universe(skew, seed):
    keys = zipf_stream(500, 200, skew=skew, seed=seed)
    assert all(0 <= k < 500 for k in keys)
