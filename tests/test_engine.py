"""Tests for the discrete-event engine."""

from repro.mem.dram import DRAM
from repro.params import BLOCK_SIZE, DRAMParams, SimParams, TileParams
from repro.sim.engine import Access, Engine, WalkTrace


def trace(*accesses, key=0):
    return WalkTrace(key, list(accesses))


def sim(tiles=2, contexts=2, **dram_kw):
    return SimParams(
        dram=DRAMParams(**dram_kw),
        tile=TileParams(walker_contexts=contexts),
        tiles=tiles,
    )


class TestTimedRun:
    def test_empty(self):
        result = Engine(sim()).run([])
        assert result.makespan == 0
        assert result.num_walks == 0

    def test_single_compute_walk(self):
        engine = Engine(sim())
        result = engine.run([trace(Access("compute", cycles=42))])
        assert result.makespan == 42
        assert result.avg_walk_latency == 42

    def test_serial_accesses_within_walk(self):
        engine = Engine(sim(tiles=1, contexts=1))
        result = engine.run([
            trace(Access("compute", cycles=10), Access("sram", cycles=5))
        ])
        assert result.makespan == 15

    def test_walks_on_one_context_serialize(self):
        engine = Engine(sim(tiles=1, contexts=1))
        result = engine.run([
            trace(Access("compute", cycles=10)),
            trace(Access("compute", cycles=10)),
        ])
        assert result.makespan == 20

    def test_walks_across_contexts_overlap(self):
        engine = Engine(sim(tiles=1, contexts=2))
        result = engine.run([
            trace(Access("compute", cycles=10)),
            trace(Access("compute", cycles=10)),
        ])
        assert result.makespan == 10

    def test_dram_latency_applied(self):
        engine = Engine(sim(tiles=1, contexts=1))
        result = engine.run([trace(Access("dram", address=0))])
        assert result.makespan == engine.params.dram.t_access

    def test_bank_contention_bounds_throughput(self):
        # Many independent single-access walks to the same bank.
        engine = Engine(sim(tiles=4, contexts=4, banks=1, t_occupancy=50))
        same_bank = [trace(Access("dram", address=0)) for _ in range(8)]
        result = engine.run(same_bank)
        assert result.makespan >= 7 * 50

    def test_multi_block_access_expanded(self):
        engine = Engine(sim(tiles=1, contexts=1))
        result = engine.run([
            trace(Access("dram", address=0, nbytes=BLOCK_SIZE * 4))
        ])
        assert engine.dram.stats.reads == 4

    def test_contended_multi_block_access_issues_back_to_back(self):
        """No other context runs between the blocks of one access.

        Walk 0 fetches a 128 B data object (banks 0 and 1, row 0); walk 1,
        on the other context, reads bank 1. Walk 0's second block issues
        at cycle 100, right after its first, and opens row 0 on bank 1
        before walk 1 gets there: walk 1 waits for the bank until 120
        and row-hits (done at 160); walk 0 row-misses (done at 200).
        """
        from repro.sim.batch import TraceBatch
        from repro.sim.metrics import WalkRequest

        walks = [
            (trace(), WalkRequest(None, 0, data_address=0,
                                  data_bytes=2 * BLOCK_SIZE)),
            (trace(Access("dram", address=BLOCK_SIZE)), WalkRequest(None, 0)),
        ]
        batch = TraceBatch()
        for walk, request in walks:
            batch.add_accesses(walk.accesses)
            batch.finish_walk(request, 0, 0, False, False)
        engine = Engine(sim(tiles=1, contexts=2))
        result = engine.run_batch(batch, record_latencies=True)
        assert result.walk_latencies == [160, 200]
        assert result.makespan == 200
        stats = engine.dram.stats
        assert (stats.row_hits, stats.row_misses, stats.reads) == (1, 2, 3)

    def test_walker_failure_drawn_once_per_access(self):
        """A faulted multi-block access is one refill step: one draw."""
        from repro.faults import FaultInjector, FaultPlan

        class CountingInjector(FaultInjector):
            __slots__ = ("draws",)

            def walker_failures(self):
                self.draws += 1
                return super().walker_failures()

        injector = CountingInjector(FaultPlan(walker_fail_rate=0.5, seed=3))
        injector.draws = 0
        engine = Engine(sim(tiles=1, contexts=2))
        engine.attach_faults(injector)
        engine.run([
            trace(Access("dram", address=i * 256, nbytes=4 * BLOCK_SIZE))
            for i in range(6)
        ])
        assert injector.draws == 6
        assert engine.dram.stats.reads >= 24

    def test_latencies_recorded(self):
        engine = Engine(sim(tiles=1, contexts=1))
        result = engine.run(
            [trace(Access("compute", cycles=7)) for _ in range(3)],
            record_latencies=True,
        )
        assert result.walk_latencies == [7, 7, 7]

    def test_mlp_beats_serial(self):
        """Independent DRAM walks overlap; more contexts = faster."""
        walks = [trace(Access("dram", address=i * BLOCK_SIZE)) for i in range(16)]
        serial = Engine(sim(tiles=1, contexts=1)).run(list(walks))
        parallel = Engine(sim(tiles=4, contexts=4)).run(list(walks))
        assert parallel.makespan < serial.makespan


class TestFunctionalRun:
    def test_counts_traffic(self):
        engine = Engine(sim())
        engine.run_functional([trace(Access("dram", address=0))])
        assert engine.dram.stats.reads == 1

    def test_nominal_latency(self):
        engine = Engine(sim(tiles=1, contexts=1))
        result = engine.run_functional([
            trace(Access("dram", address=0), Access("compute", cycles=10))
        ])
        assert result.total_walk_cycles == engine.params.dram.t_access + 10

    def test_makespan_scaled_by_contexts(self):
        walks = [trace(Access("compute", cycles=100)) for _ in range(8)]
        narrow = Engine(sim(tiles=1, contexts=1)).run_functional(list(walks))
        wide = Engine(sim(tiles=4, contexts=2)).run_functional(list(walks))
        assert wide.makespan < narrow.makespan


class TestContexts:
    def test_context_count(self):
        assert Engine(sim(tiles=3, contexts=5)).contexts == 15


class TestCrossbar:
    def test_port_arbitration_serializes(self):
        from repro.sim.noc import Crossbar
        from repro.params import CrossbarParams

        xbar = Crossbar(CrossbarParams(ports=1, t_occupancy=5))
        first = xbar.access(0, 0, 2)
        second = xbar.access(0, 0, 2)
        assert second > first

    def test_distinct_ports_overlap(self):
        from repro.sim.noc import Crossbar
        from repro.params import CrossbarParams

        xbar = Crossbar(CrossbarParams(ports=4, t_occupancy=5))
        a = xbar.access(0, 0, 2)
        b = xbar.access(1, 0, 2)
        assert a == b == 2

    def test_total_wait(self):
        from repro.sim.noc import Crossbar
        from repro.params import CrossbarParams

        xbar = Crossbar(CrossbarParams(ports=1, t_occupancy=10))
        xbar.access(0, 0, 1)
        xbar.access(0, 0, 1)
        assert (xbar.requests, xbar.total_wait) == (2, 10)

    def test_invalid_ports(self):
        import pytest

        from repro.sim.noc import Crossbar
        from repro.params import CrossbarParams

        with pytest.raises(ValueError):
            Crossbar(CrossbarParams(ports=0))

    def test_engine_contends_probes(self):
        """Many concurrent walks probing one port serialize on the xbar."""
        from repro.params import CrossbarParams, DRAMParams, TileParams

        params = SimParams(
            dram=DRAMParams(),
            tile=TileParams(walker_contexts=8),
            xbar=CrossbarParams(ports=1, t_occupancy=10),
            tiles=2,
        )
        walks = [trace(Access("sram", cycles=2, port=0)) for _ in range(8)]
        contended = Engine(params).run(list(walks))
        free = Engine(sim(tiles=2, contexts=8)).run(
            [trace(Access("sram", cycles=2)) for _ in range(8)]
        )
        assert contended.makespan > free.makespan
