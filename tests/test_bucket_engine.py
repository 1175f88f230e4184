"""The engine vs the reference heap loop: exact equivalence.

``Engine.run`` drains contexts off one heap of ``(cycle << bits) | ctx``
ints, running a context on while its next event is due at the same
cycle — the (cycle, ctx) order a tuple heap pops. The reference
(``tests/reference/engine.py``) is the plain one-event-per-pop heap loop. These properties hammer tie-heavy schedules
(many contexts due at the same cycle, zero-latency compute steps, bank
conflicts, crossbar ties, multi-block DRAM accesses, prefetches) where
any ordering divergence would surface as a different row-hit sequence or
makespan.
"""

from hypothesis import example, given, settings, strategies as st

from repro.mem.dram import DRAM
from repro.params import DRAMParams, SimParams, TileParams
from repro.sim.engine import Access, Engine, WalkTrace
from tests.reference.engine import reference_run


def _walks(spec):
    """spec: list of lists of (kind, magnitude) -> WalkTraces.

    kind 0 -> DRAM (few distinct banks: heavy conflicts; some span up
    to four blocks, some write), kind 1 -> compute (including zero
    latencies: tie-heavy), kind 2 -> SRAM on a shared port (crossbar
    arbitration ties), kind 3 -> port-less SRAM, kind 4 -> prefetch.
    """
    traces = []
    for i, accesses in enumerate(spec):
        steps = []
        for kind, magnitude in accesses:
            # Confine addresses to a handful of blocks so several
            # contexts hit the same bank in the same cycle.
            address = (magnitude % 8) * 64
            if kind == 0:
                steps.append(Access(
                    "dram", address=address,
                    nbytes=64 * (1 + magnitude % 4) if magnitude % 3 else 64,
                    write=magnitude % 5 == 0,
                ))
            elif kind == 1:
                steps.append(Access("compute", cycles=magnitude % 3))
            elif kind == 2:
                steps.append(Access("sram", cycles=magnitude % 4 + 1,
                                    port=magnitude % 2))
            elif kind == 3:
                steps.append(Access("sram", cycles=magnitude % 4))
            else:
                steps.append(Access("dram_prefetch", address=address,
                                    nbytes=64 * (1 + magnitude % 2)))
        traces.append(WalkTrace(i, steps))
    return traces


def _params(contexts):
    return SimParams(
        dram=DRAMParams(),
        tile=TileParams(walker_contexts=contexts),
        tiles=1,
    )


#: DRAM steps drawn three times as often as each other kind, so
#: multi-block accesses regularly contend with other contexts.
TIE_HEAVY_SPEC = st.lists(
    st.lists(st.tuples(st.sampled_from([0, 0, 0, 1, 2, 3, 4]),
                       st.integers(0, 100)),
             min_size=0, max_size=6),
    min_size=1, max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(spec=TIE_HEAVY_SPEC, contexts=st.sampled_from([1, 3, 8]))
# Two contexts racing for bank 1: the second block of a two-block access
# must issue before the other context's access to the same bank.
@example(spec=[[(0, 1)], [(0, 1)]], contexts=3)
def test_property_bucket_matches_heap_exactly(spec, contexts):
    """Same walks, same contexts: every result and stat is identical."""
    traces = _walks(spec)
    params = _params(contexts)
    ref_res, ref_dram, ref_xbar = reference_run(params, traces)
    engine = Engine(params, DRAM())
    res = engine.run(traces, record_latencies=True)

    assert res.makespan == ref_res.makespan
    assert res.total_walk_cycles == ref_res.total_walk_cycles
    # Latencies must match per-walk, not merely in aggregate: the
    # calendar engine completes walks in exactly heap order.
    assert res.walk_latencies == ref_res.walk_latencies

    hs, bs = ref_dram.stats, engine.dram.stats
    assert (bs.row_hits, bs.row_misses) == (hs.row_hits, hs.row_misses)
    assert bs.energy_fj == hs.energy_fj
    assert (bs.reads, bs.writes) == (hs.reads, hs.writes)
    assert bs.bytes_moved == hs.bytes_moved
    assert bs.touched_blocks == hs.touched_blocks
    assert engine.xbar.requests == ref_xbar.requests
    assert engine.xbar.total_wait == ref_xbar.total_wait


@settings(max_examples=25, deadline=None)
@given(spec=TIE_HEAVY_SPEC)
def test_property_all_ties_single_cycle_compute(spec):
    """Degenerate calendar: every context lands in the same few buckets."""
    # Strip to compute-only single-cycle steps: maximal bucket sharing.
    traces = [
        WalkTrace(i, [Access("compute", cycles=1) for _ in accesses])
        for i, accesses in enumerate(spec)
    ]
    params = _params(4)
    ref_res, _, _ = reference_run(params, traces)
    res = Engine(params).run(traces, record_latencies=True)
    assert res.walk_latencies == ref_res.walk_latencies
    assert res.makespan == ref_res.makespan
