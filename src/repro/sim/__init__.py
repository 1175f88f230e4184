"""Cycle-approximate simulation: memory systems, event engine, metrics.

The flow mirrors Fig. 14's toolflow at the granularity that matters for the
evaluation: workloads produce walk requests; a memory system (streaming /
address cache / FA-OPT / X-cache / METAL) turns each walk into a trace of
timed accesses; the event engine multiplexes walker contexts over banked
DRAM and reports latency, traffic, and energy.
"""

from repro.sim.engine import Access, Engine, EngineResult, WalkTrace
from repro.sim.memsys import (
    AddressCacheMemSys,
    FAOPTMemSys,
    MemorySystem,
    MetalMemSys,
    StreamingMemSys,
    XCacheMemSys,
    make_memsys,
)
from repro.sim.metrics import RunResult, WalkRequest, simulate
from repro.sim.noc import Crossbar
from repro.sim.scheduler import schedule

__all__ = [
    "Access",
    "AddressCacheMemSys",
    "Crossbar",
    "Engine",
    "EngineResult",
    "FAOPTMemSys",
    "make_memsys",
    "MemorySystem",
    "MetalMemSys",
    "RunResult",
    "schedule",
    "simulate",
    "StreamingMemSys",
    "WalkRequest",
    "WalkTrace",
    "XCacheMemSys",
]
