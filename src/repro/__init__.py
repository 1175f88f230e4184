"""METAL: Caching Multi-level Indexes in Domain-Specific Architectures.

Reproduction of the ASPLOS'24 paper. The package layers:

* :mod:`repro.indexes` — the index data structures DSAs walk (B+tree, skip
  lists/sorted sets, R-tree, sparse tensors/fibers, adjacency lists,
  record tables).
* :mod:`repro.mem` — DRAM model and baseline caches (address, Belady
  FA-OPT, X-cache).
* :mod:`repro.core` — the contribution: range-tagged IX-cache, reuse
  descriptors (Node / Level / Branch) and the pattern controller.
* :mod:`repro.dsa` — the target DSAs as Table-2 intensities plus the
  functions lowering their operators to walk requests.
* :mod:`repro.sim` — cycle-approximate event engine and memory-system
  organizations under comparison.
* :mod:`repro.workloads` — the eight Table-2 applications as synthetic,
  seed-deterministic workloads.
* :mod:`repro.bench` — harness regenerating every evaluation table/figure.

Quickstart::

    from repro import build_workload, compare_systems

    workload = build_workload("scan", scale=0.25)
    results = compare_systems(workload)
    base = results["stream"].makespan
    for name, run in results.items():
        print(name, base / run.makespan)
"""

from repro.bench.runner import SYSTEMS, build_memsys, compare_systems, run_workload
from repro.core.descriptors import (
    BranchDescriptor,
    CompositeDescriptor,
    LevelDescriptor,
    NodeDescriptor,
)
from repro.core.ix_cache import IXCache
from repro.indexes.bplustree import BPlusTree
from repro.params import CacheParams, DRAMParams, SimParams
from repro.sim.metrics import RunResult, WalkRequest, simulate
from repro.workloads.suite import Workload, build_workload

__version__ = "1.0.0"

__all__ = [
    "BPlusTree",
    "BranchDescriptor",
    "build_memsys",
    "build_workload",
    "CacheParams",
    "compare_systems",
    "CompositeDescriptor",
    "DRAMParams",
    "IXCache",
    "LevelDescriptor",
    "NodeDescriptor",
    "RunResult",
    "run_workload",
    "SimParams",
    "simulate",
    "SYSTEMS",
    "WalkRequest",
    "Workload",
    "__version__",
]
