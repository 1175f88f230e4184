"""Reference timing engine: the plain one-event-per-pop heap loop.

An independent model of the walker-context engine for differential
tests. Walks go round-robin to ``tiles x walker_contexts`` contexts; a
binary heap orders pending contexts by ``(cycle, ctx)``; each pop runs
exactly one access of that context's current walk (every block of a
multi-block access back to back) and pushes the context back at the
access's completion cycle. No tracing, no faults, no batching — nothing
but the event order the production engine must reproduce.
"""

from __future__ import annotations

import heapq

from repro.mem.dram import DRAM
from repro.params import BLOCK_SIZE, SimParams
from repro.sim.engine import EngineResult, WalkTrace
from repro.sim.noc import Crossbar


def reference_run(
    params: SimParams, traces: list[WalkTrace]
) -> tuple[EngineResult, DRAM, Crossbar]:
    """Time ``traces``; return the result plus the DRAM and crossbar."""
    dram = DRAM(params.dram)
    xbar = Crossbar(params.xbar)
    result = EngineResult(num_walks=len(traces))
    contexts = max(1, params.tiles * params.tile.walker_contexts)
    queues: list[list[WalkTrace]] = [[] for _ in range(contexts)]
    for i, trace in enumerate(traces):
        queues[i % contexts].append(trace)
    heap = [(0, c) for c in range(contexts) if queues[c]]
    heapq.heapify(heap)
    walk_idx = [0] * contexts
    access_idx = [0] * contexts
    walk_start = [0] * contexts
    while heap:
        now, ctx = heapq.heappop(heap)
        accesses = queues[ctx][walk_idx[ctx]].accesses
        if access_idx[ctx] < len(accesses):
            access = accesses[access_idx[ctx]]
            blocks = range(0, max(access.nbytes, 1), BLOCK_SIZE)
            if access.kind == "dram":
                for offset in blocks:
                    now = dram.access(access.address + offset, now,
                                      write=access.write)
            elif access.kind == "dram_prefetch":
                # Bandwidth and occupancy only; never stalls the walker.
                for offset in blocks:
                    dram.access(access.address + offset, now)
            elif access.kind == "sram" and access.port >= 0:
                now = xbar.access(access.port, now, access.cycles)
            else:
                now += access.cycles
            access_idx[ctx] += 1
            heapq.heappush(heap, (now, ctx))
            continue
        latency = now - walk_start[ctx]
        result.total_walk_cycles += latency
        result.walk_latencies.append(latency)
        result.makespan = max(result.makespan, now)
        walk_idx[ctx] += 1
        access_idx[ctx] = 0
        walk_start[ctx] = now
        if walk_idx[ctx] < len(queues[ctx]):
            heapq.heappush(heap, (now, ctx))
    return result, dram, xbar
