"""Ablations over METAL's design choices (DESIGN.md's supplemental axes).

* **Geometry** — associativity sweep (paper supplemental: "Best geometry:
  16-way. 16 banked").
* **Shared vs. private** — one IX-cache shared by all tiles vs. the same
  capacity partitioned per tile (paper: "Shared is best since access every
  70-180 cycles").
* **Mechanism toggles** — Case-3 coalescing, key-focused insertion,
  touch-filter admission, and the next-line prefetcher on the address
  baseline.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.bench.format import render_table
from repro.cmdline import positive_float
from repro.exec import Executor, RunSpec, default_executor
from repro.sim.metrics import RunResult
from repro.workloads.suite import WORKLOAD_BUILDERS, Workload, build_workload


def _ablation_workload(
    workload: Workload | None, scale: float, executor: Executor,
    default_name: str = "scan",
) -> Workload:
    """Resolve the prebuilt-or-default workload and donate it to workers."""
    workload = workload or build_workload(default_name, scale=scale)
    executor.seed_workloads([workload])
    return workload


# --------------------------------------------------------------------- #
# Geometry (ways) sweep
# --------------------------------------------------------------------- #

def run_geometry_sweep(
    workload: Workload | None = None,
    ways_options: tuple[int, ...] = (1, 4, 8, 16, 32),
    scale: float = 0.25,
    executor: Executor | None = None,
) -> dict[int, RunResult]:
    executor = executor or default_executor()
    workload = _ablation_workload(workload, scale, executor)
    specs = [
        RunSpec.make(
            workload.name, "metal", scale=workload.scale, seed=workload.seed,
            cache_kwargs={"ways": ways},
        )
        for ways in ways_options
    ]
    return dict(zip(ways_options, executor.run_results(specs)))


def format_geometry(results: dict[int, RunResult]) -> str:
    headers = ["ways", "makespan", "avg walk latency", "miss rate"]
    rows = [
        [ways, r.makespan, r.avg_walk_latency, r.miss_rate]
        for ways, r in sorted(results.items())
    ]
    return render_table(headers, rows, "Ablation — IX-cache associativity")


# --------------------------------------------------------------------- #
# Shared vs. private IX-cache
# --------------------------------------------------------------------- #

@dataclass
class SharedVsPrivate:
    shared: RunResult
    private_makespan: int
    num_partitions: int
    private_hit_rate: float


def run_shared_vs_private(
    workload: Workload | None = None,
    partitions: int = 4,
    scale: float = 0.25,
    executor: Executor | None = None,
) -> SharedVsPrivate:
    """Same total capacity: one shared cache vs. per-tile-group slices.

    Private slices lose cooperative caching: a node cached by one tile
    group cannot short-circuit another group's walks.
    """
    executor = executor or default_executor()
    workload = _ablation_workload(workload, scale, executor)
    name, scale, seed = workload.name, workload.scale, workload.seed

    # Each private slice serves one tile group: 1/partitions of the tiles,
    # 1/partitions of the capacity, 1/partitions of the walks. Wall time is
    # the slowest group (they run concurrently).
    group_tiles = max(1, workload.config.tiles // partitions)
    slice_bytes = max(1024, workload.default_cache_bytes // partitions)
    specs = [RunSpec(workload=name, system="metal", scale=scale, seed=seed)]
    specs.extend(
        RunSpec(
            workload=name, system="metal", scale=scale, seed=seed,
            tiles=group_tiles, cache_bytes=slice_bytes,
            requests_slice=(i, partitions),
        )
        for i in range(partitions)
    )
    shared, *privates = executor.run_results(specs)
    makespan = 0
    hits = accesses = 0
    for run in privates:
        makespan = max(makespan, run.makespan)
        if run.cache_stats:
            hits += run.cache_stats.hits
            accesses += run.cache_stats.accesses
    return SharedVsPrivate(
        shared=shared,
        private_makespan=makespan,
        num_partitions=partitions,
        private_hit_rate=hits / accesses if accesses else 0.0,
    )


def format_shared_vs_private(result: SharedVsPrivate) -> str:
    shared_hit = result.shared.cache_stats.hit_rate if result.shared.cache_stats else 0.0
    headers = ["organization", "makespan", "hit rate"]
    rows = [
        ["shared", result.shared.makespan, shared_hit],
        [f"private x{result.num_partitions}", result.private_makespan,
         result.private_hit_rate],
    ]
    return render_table(
        headers, rows, "Ablation — shared vs. private IX-cache (equal capacity)"
    )


# --------------------------------------------------------------------- #
# Mechanism toggles
# --------------------------------------------------------------------- #

@dataclass
class ToggleResult:
    label: str
    run: RunResult


def run_mechanism_toggles(
    workload: Workload | None = None, scale: float = 0.25,
    executor: Executor | None = None,
) -> list[ToggleResult]:
    executor = executor or default_executor()
    workload = _ablation_workload(workload, scale, executor)
    base = dict(scale=workload.scale, seed=workload.seed)
    cells = [
        ("metal (default)",
         RunSpec.make(workload.name, "metal", **base)),
        # Case-3 coalescing off.
        ("no coalescing",
         RunSpec.make(workload.name, "metal", **base,
                      memsys_kwargs={"coalesce": False})),
        # Fully-associative IX-cache (no key-block sets).
        ("fully associative",
         RunSpec.make(workload.name, "metal", **base,
                      memsys_kwargs={"associative": False})),
        # Address baseline variants: flat, next-line prefetch, two-level.
        ("address", RunSpec.make(workload.name, "address", **base)),
        ("address + prefetch",
         RunSpec.make(workload.name, "address_pf", **base)),
        ("address L1+L2",
         RunSpec.make(workload.name, "address_l2", **base)),
    ]
    folded = executor.run_results([spec for _, spec in cells])
    return [ToggleResult(label, run)
            for (label, _), run in zip(cells, folded)]


def format_toggles(results: list[ToggleResult]) -> str:
    headers = ["configuration", "makespan", "avg walk latency", "index DRAM"]
    rows = [
        [r.label, r.run.makespan, r.run.avg_walk_latency, r.run.index_dram_accesses]
        for r in results
    ]
    return render_table(headers, rows, "Ablation — mechanism toggles")


# --------------------------------------------------------------------- #
# Walk-scheduling policies
# --------------------------------------------------------------------- #

def run_scheduling(
    workload: Workload | None = None, scale: float = 0.25,
    executor: Executor | None = None,
) -> dict[str, RunResult]:
    """Request-reorder policies (repro.sim.scheduler) under METAL-IX."""
    from repro.sim.scheduler import POLICIES

    executor = executor or default_executor()
    workload = _ablation_workload(workload, scale, executor)
    specs = [
        RunSpec(
            workload=workload.name, system="metal_ix",
            scale=workload.scale, seed=workload.seed, schedule=policy,
        )
        for policy in POLICIES
    ]
    return dict(zip(POLICIES, executor.run_results(specs)))


def format_scheduling(results: dict[str, RunResult]) -> str:
    headers = ["policy", "makespan", "index DRAM", "row-hit rate"]
    rows = []
    for policy, run in results.items():
        total_rows = run.dram.row_hits + run.dram.row_misses
        rows.append([
            policy, run.makespan, run.index_dram_accesses,
            run.dram.row_hits / max(1, total_rows),
        ])
    return render_table(
        headers, rows, "Ablation — walk-issue scheduling policies (METAL-IX)"
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="scan",
                        choices=sorted(WORKLOAD_BUILDERS))
    parser.add_argument("--scale", type=positive_float, default=0.25)


def run(args: argparse.Namespace) -> int:
    workload = build_workload(args.workload, scale=args.scale)
    print(format_geometry(run_geometry_sweep(workload)))
    print()
    print(format_shared_vs_private(run_shared_vs_private(workload)))
    print()
    print(format_toggles(run_mechanism_toggles(workload)))
    return 0
