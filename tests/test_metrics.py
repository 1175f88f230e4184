"""Tests for the simulate() driver and RunResult metrics."""

import pytest

from repro.indexes.bplustree import BPlusTree
from repro.params import BLOCK_SIZE, CacheParams, SimParams
from repro.sim.memsys import make_memsys
from repro.sim.metrics import RunResult, WalkRequest, simulate


@pytest.fixture(scope="module")
def tree():
    return BPlusTree.bulk_load([(k, k) for k in range(1_000)], fanout=4)


def requests(tree, keys, **kw):
    return [WalkRequest(tree, k, **kw) for k in keys]


class TestSimulate:
    def test_basic_run(self, tree):
        ms = make_memsys("stream")
        result = simulate(ms, requests(tree, [1, 2, 3]), total_index_blocks=tree.total_blocks())
        assert result.num_walks == 3
        assert result.makespan > 0
        assert result.name == "stream"

    def test_stream_working_set_is_one(self, tree):
        ms = make_memsys("stream")
        result = simulate(ms, requests(tree, range(100)), total_index_blocks=tree.total_blocks())
        assert result.working_set_fraction == pytest.approx(1.0)

    def test_cached_working_set_below_one(self, tree):
        ms = make_memsys("metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE))
        keys = [k % 50 for k in range(500)]
        result = simulate(ms, requests(tree, keys), total_index_blocks=tree.total_blocks())
        assert result.working_set_fraction < 0.7

    def test_compute_cycles_add_latency(self, tree):
        ms1 = make_memsys("stream")
        base = simulate(ms1, requests(tree, [1]))
        ms2 = make_memsys("stream")
        heavy = simulate(ms2, requests(tree, [1], compute_cycles=10_000))
        assert heavy.makespan > base.makespan + 9_000

    def test_data_access_counted(self, tree):
        from repro.mem.layout import Allocator

        ms = make_memsys("stream")
        result = simulate(
            ms,
            requests(tree, [1], data_address=Allocator.DATA_BASE, data_bytes=64),
        )
        # Data access reaches DRAM but is excluded from index traffic.
        assert result.index_dram_accesses < result.dram.accesses

    def test_record_latencies(self, tree):
        ms = make_memsys("stream")
        result = simulate(ms, requests(tree, [1, 2]), record_latencies=True)
        assert len(result.walk_latencies) == 2


class TestRunResult:
    def make(self, **kw):
        from repro.mem.stats import DRAMStats

        defaults = dict(
            name="x", makespan=100, num_walks=10, total_walk_cycles=500,
            dram=DRAMStats(), cache_stats=None, total_index_blocks=100,
        )
        defaults.update(kw)
        return RunResult(**defaults)

    def test_avg_walk_latency(self):
        assert self.make().avg_walk_latency == 50.0

    def test_avg_latency_empty(self):
        assert self.make(num_walks=0, total_walk_cycles=0).avg_walk_latency == 0.0

    def test_miss_rate_no_cache(self):
        assert self.make().miss_rate == 1.0

    def test_working_set_no_baseline(self):
        assert self.make().working_set_fraction == 0.0

    def test_working_set_fraction_capped(self):
        r = self.make(index_dram_accesses=500, baseline_index_accesses=100)
        assert r.working_set_fraction == 1.0


class TestCrossSystemInvariants:
    """Relationships that must hold between organizations on any workload."""

    def test_caches_never_exceed_stream_traffic(self, tree):
        keys = [k % 100 for k in range(400)]
        blocks = tree.total_blocks()
        stream = simulate(make_memsys("stream"), requests(tree, keys), total_index_blocks=blocks)
        for kind in ("address", "xcache", "metal_ix"):
            run = simulate(make_memsys(kind), requests(tree, keys), total_index_blocks=blocks)
            assert run.index_dram_accesses <= stream.index_dram_accesses

    def test_metal_short_circuits_reduce_visits(self, tree):
        keys = [k % 100 for k in range(400)]
        stream = simulate(make_memsys("stream"), requests(tree, keys))
        metal = simulate(make_memsys("metal_ix"), requests(tree, keys))
        assert metal.nodes_visited < stream.nodes_visited


class TestToDict:
    def test_json_serializable(self, tree):
        import json

        ms = make_memsys("metal_ix")
        result = simulate(ms, requests(tree, [1, 2, 3]),
                          total_index_blocks=tree.total_blocks())
        payload = result.to_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["system"] == "metal_ix"
        assert back["num_walks"] == 3
        assert back["cache"]["accesses"] == 3

    def test_stream_has_no_cache_section(self, tree):
        ms = make_memsys("stream")
        result = simulate(ms, requests(tree, [1]))
        assert result.to_dict()["cache"] is None
