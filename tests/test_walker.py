"""Tests for the microcoded walker FSM (Fig. 9)."""

from repro.dsa.walker import MicrocodeTable, Walker, WalkerState
from repro.indexes.bplustree import BPlusTree
from repro.sim.engine import K_DRAM
from repro.sim.memsys import StreamingMemSys
from tests.walks import walk


def tree():
    return BPlusTree.bulk_load([(k, k) for k in range(500)], fanout=4)


class TestMicrocode:
    def test_cycle_of_states(self):
        table = MicrocodeTable()
        assert table.successor(WalkerState.FETCH) is WalkerState.WAIT
        assert table.successor(WalkerState.WAIT) is WalkerState.SEARCH
        assert table.successor(WalkerState.SEARCH) is WalkerState.NEXT
        assert table.successor(WalkerState.NEXT) is WalkerState.FETCH

    def test_done_has_no_successor(self):
        import pytest

        with pytest.raises(KeyError):
            MicrocodeTable().successor(WalkerState.DONE)


class TestWalker:
    def test_visits_every_level(self):
        t = tree()
        walker = Walker()
        states = [s.state for s in walker.run(t, 123)]
        assert states.count(WalkerState.FETCH) == t.height
        assert states.count(WalkerState.WAIT) == t.height
        assert states[-1] is WalkerState.DONE

    def test_leaf_result_matches_tree(self):
        t = tree()
        walker = Walker()
        leaf = walker.leaf(t, 321)
        assert leaf is t.walk(321)[-1]

    def test_yield_points_carry_accesses(self):
        t = tree()
        for step in Walker().run(t, 50):
            if step.state is WalkerState.WAIT:
                assert step.access is not None and step.access.kind == "dram"
            if step.state is WalkerState.SEARCH:
                assert step.access is not None and step.access.kind == "compute"

    def test_trace_dram_count_matches_streaming_memsys(self):
        """The FSM and the streaming memory system agree on work done."""
        t = tree()
        walker_dram = sum(
            1 for a in Walker().trace(t, 222) if a.kind == "dram"
        )
        stream_trace = walk(StreamingMemSys(), t, 222)
        stream_dram = stream_trace.count(K_DRAM)
        # The walker issues one fetch per node; streaming expands to the
        # binary-search footprint — node counts must agree.
        assert walker_dram == t.height
        assert stream_trace.nodes_visited == t.height
        assert stream_dram >= walker_dram

    def test_start_from_cached_node(self):
        t = tree()
        mid = t.walk(100)[1]
        steps = list(Walker().run(t, 100, start=mid))
        fetches = [s for s in steps if s.state is WalkerState.FETCH]
        assert len(fetches) == t.height - 2  # skips root and the cached node


class TestWalkProgram:
    def test_compile_distributes_ops(self):
        from repro.dsa.walker import WalkProgram

        program = WalkProgram.compile(ops_per_walk=80, height=10, ops_per_cycle=4)
        assert program.fetch_cycles >= 1
        assert program.search_cycles >= program.next_cycles
        assert program.cycles_per_level >= 3

    def test_compile_validation(self):
        import pytest

        from repro.dsa.walker import WalkProgram

        with pytest.raises(ValueError):
            WalkProgram.compile(10, 0)
        with pytest.raises(ValueError):
            WalkProgram.compile(10, 5, ops_per_cycle=0)

    def test_programmed_walker_charges_state_costs(self):
        from repro.dsa.walker import Walker, WalkProgram, WalkerState

        t = tree()
        program = WalkProgram.compile(80, t.height)
        walker = Walker(program=program)
        for step in walker.run(t, 99):
            if step.state is WalkerState.SEARCH:
                assert step.access.cycles == program.search_cycles
            if step.state is WalkerState.NEXT and step.access is not None:
                assert step.access.cycles == program.next_cycles

    def test_heavier_program_costs_more(self):
        from repro.dsa.walker import Walker, WalkProgram

        t = tree()
        light = Walker(program=WalkProgram.compile(20, t.height))
        heavy = Walker(program=WalkProgram.compile(400, t.height))
        cost = lambda w: sum(  # noqa: E731
            a.cycles for a in w.trace(t, 50) if a.kind == "compute"
        )
        assert cost(heavy) > cost(light)
