"""Tests for the DSA parameters and each DSA's ``*_requests`` functions."""

import numpy as np

from repro.dsa import aurochs, capstan, gorgon
from repro.dsa.aurochs import RTREE_CONFIG
from repro.dsa.capstan import SPMM_CONFIG
from repro.dsa.config import DSAConfig
from repro.dsa.gorgon import ANALYTICS_CONFIG, SCAN_CONFIG
from repro.indexes.rtree import Rect, RTree2D
from repro.indexes.sparse_tensor import DynamicSparseTensor
from repro.indexes.soa import SoARecordTable


def table(n=100):
    ids = np.arange(n, dtype=np.int64)
    return SoARecordTable(("id", "fk"), "id", {"id": ids, "fk": (ids * 7) % n})


class TestDSAConfig:
    def test_compute_cycles(self):
        cfg = DSAConfig("x", ops_per_cycle=4, ops_per_compute=100)
        assert cfg.compute_cycles_per_walk == 25

    def test_sim_params_geometry(self):
        cfg = DSAConfig("x", tiles=32, walker_contexts=8)
        sim = cfg.sim_params()
        assert sim.tiles == 32
        assert sim.tile.walker_contexts == 8

    def test_scaled(self):
        assert SCAN_CONFIG.scaled(64).tiles == 64
        assert SCAN_CONFIG.scaled(64).ops_per_walk == SCAN_CONFIG.ops_per_walk


class TestGorgon:
    def test_scan_requests_carry_data_addresses(self):
        reqs = gorgon.scan_requests(SCAN_CONFIG, table(), [1, 2, 3])
        assert len(reqs) == 3
        assert all(r.data_address is not None for r in reqs)

    def test_join_requests_probe_inner(self):
        outer, inner = table(20), table(50)
        reqs = gorgon.join_requests(ANALYTICS_CONFIG, outer, inner, "fk")
        assert len(reqs) == 20
        assert all(r.index is inner for r in reqs)

    def test_join_functional_semantics(self):
        outer, inner = table(20), table(20)
        joined = list(outer.join(inner, "fk"))
        assert all(l["fk"] == r["id"] for l, r in joined)

    def test_select_range_bounded_compute(self):
        reqs = gorgon.select_requests(ANALYTICS_CONFIG, table(), [(0, 1000)])
        assert reqs[0].compute_cycles <= ANALYTICS_CONFIG.compute_cycles_per_walk * 8

    def test_select_requests_carry_scan_hi(self):
        reqs = gorgon.select_requests(ANALYTICS_CONFIG, table(), [(10, 30)])
        assert [(r.key, r.scan_hi) for r in reqs] == [(10, 30)]


class TestCapstan:
    def test_spmm_requests_per_nonzero(self):
        b = DynamicSparseTensor.from_coo(
            (10, 10), [(r, c, 1.0) for r in range(3) for c in range(3)]
        )
        a_rows = [[(0, 1.0), (2, 1.0)], [(1, 1.0)]]
        reqs = capstan.spmm_requests(SPMM_CONFIG, a_rows, b)
        # One walk per nonzero of A, keyed by its column, in row order.
        assert [r.key for r in reqs] == [c for row in a_rows for c, _ in row]
        assert all(r.index is b for r in reqs)

    def test_spmm_requests(self):
        b = DynamicSparseTensor.from_coo(
            (20, 20), [(r, c, 1.0) for r in range(4) for c in range(4)]
        )
        reqs = capstan.spmm_requests(SPMM_CONFIG, [[(0, 1.0), (2, 1.0)]], b)
        assert [r.key for r in reqs] == [0, 2]

    def test_spmm_functional_matches_dense(self):
        triples = [(0, 0, 2.0), (1, 1, 3.0), (0, 1, 4.0)]
        b = DynamicSparseTensor.from_coo((2, 2), triples)
        a_rows = [[(0, 1.0), (1, 1.0)]]
        out = capstan.spmm(a_rows, b, 2)
        # C[0][j] = sum_k A[0,k] B[k,j] = B[0,j] + B[1,j]
        assert out[0] == {0: 2.0, 1: 7.0}


class TestAurochs:
    def test_rtree_requests_mix_trees(self):
        rects = [Rect(i, i * 10, i * 10 + 5, i * 3, i * 3 + 5) for i in range(50)]
        rt = RTree2D(rects)
        reqs = aurochs.rtree_requests(RTREE_CONFIG, rt, [100, 250], y_per_x=2)
        indexes = {id(r.index) for r in reqs}
        assert id(rt.x_tree) in indexes
