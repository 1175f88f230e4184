"""Ablations over METAL's design choices (DESIGN.md's supplemental axes).

* **Geometry** — associativity sweep (paper supplemental: "Best geometry:
  16-way. 16 banked").
* **Shared vs. private** — one IX-cache shared by all tiles vs. the same
  capacity partitioned per tile (paper: "Shared is best since access every
  70-180 cycles").
* **Mechanism toggles** — Case-3 coalescing, key-focused insertion,
  touch-filter admission, and the next-line prefetcher on the address
  baseline.
* **Walk scheduling** — request-reorder policies under METAL-IX.

Each ablation is a cells table over one workload (``WORKLOADS``) and a
formatter of its :class:`~repro.bench.grid.GridRow`.
"""

from __future__ import annotations

import argparse

from repro.bench.format import render_table
from repro.bench.grid import CellTable, GridRow, run_grid
from repro.cmdline import positive_float
from repro.sim.scheduler import POLICIES
from repro.workloads.suite import WORKLOAD_BUILDERS, Workload

WORKLOADS = ("scan",)


# --------------------------------------------------------------------- #
# Geometry (ways) sweep
# --------------------------------------------------------------------- #

def geometry_cells(ways_options: tuple[int, ...] = (1, 4, 8, 16, 32)) -> CellTable:
    return {ways: {"system": "metal", "cache_kwargs": {"ways": ways}}
            for ways in ways_options}


def format_geometry(row: GridRow) -> str:
    headers = ["ways", "makespan", "avg walk latency", "miss rate"]
    table = [
        [ways, r.makespan, r.avg_walk_latency, r.miss_rate]
        for ways, r in sorted(row.runs.items())
    ]
    return render_table(headers, table, "Ablation — IX-cache associativity")


# --------------------------------------------------------------------- #
# Shared vs. private IX-cache
# --------------------------------------------------------------------- #

PARTITIONS = 4


def shared_vs_private_cells(workload: Workload) -> CellTable:
    """Same total capacity: one shared cache vs. per-tile-group slices.

    Private slices lose cooperative caching: a node cached by one tile
    group cannot short-circuit another group's walks. Each private slice
    serves one tile group: 1/PARTITIONS of the tiles, of the capacity and
    of the walks.
    """
    group_tiles = max(1, workload.config.tiles // PARTITIONS)
    slice_bytes = max(1024, workload.default_cache_bytes // PARTITIONS)
    table: dict = {"shared": {"system": "metal"}}
    for i in range(PARTITIONS):
        table[("private", i)] = {
            "system": "metal", "tiles": group_tiles, "cache_bytes": slice_bytes,
            "requests_slice": (i, PARTITIONS),
        }
    return table


def private_makespan(row: GridRow) -> int:
    """Wall time of the private slices: the slowest group (they run
    concurrently)."""
    return max(run.makespan for label, run in row.runs.items()
               if label != "shared")


def private_hit_rate(row: GridRow) -> float:
    hits = accesses = 0
    for label, run in row.runs.items():
        if label != "shared" and run.cache_stats:
            hits += run.cache_stats.hits
            accesses += run.cache_stats.accesses
    return hits / accesses if accesses else 0.0


def format_shared_vs_private(row: GridRow) -> str:
    shared = row.runs["shared"]
    shared_hit = shared.cache_stats.hit_rate if shared.cache_stats else 0.0
    headers = ["organization", "makespan", "hit rate"]
    table = [
        ["shared", shared.makespan, shared_hit],
        [f"private x{len(row.runs) - 1}", private_makespan(row),
         private_hit_rate(row)],
    ]
    return render_table(
        headers, table, "Ablation — shared vs. private IX-cache (equal capacity)"
    )


# --------------------------------------------------------------------- #
# Mechanism toggles
# --------------------------------------------------------------------- #

TOGGLE_CELLS = {
    "metal (default)": {"system": "metal"},
    # Case-3 coalescing off.
    "no coalescing": {"system": "metal", "memsys_kwargs": {"coalesce": False}},
    # Fully-associative IX-cache (no key-block sets).
    "fully associative": {"system": "metal",
                          "memsys_kwargs": {"associative": False}},
    # Address baseline variants: flat, next-line prefetch, two-level.
    "address": {"system": "address"},
    "address + prefetch": {"system": "address_pf"},
    "address L1+L2": {"system": "address_l2"},
}


def format_toggles(row: GridRow) -> str:
    headers = ["configuration", "makespan", "avg walk latency", "index DRAM"]
    table = [
        [label, run.makespan, run.avg_walk_latency, run.index_dram_accesses]
        for label, run in row.runs.items()
    ]
    return render_table(headers, table, "Ablation — mechanism toggles")


# --------------------------------------------------------------------- #
# Walk-scheduling policies
# --------------------------------------------------------------------- #

SCHEDULING_CELLS = {
    policy: {"system": "metal_ix", "schedule": policy} for policy in POLICIES
}


def format_scheduling(row: GridRow) -> str:
    headers = ["policy", "makespan", "index DRAM", "row-hit rate"]
    table = []
    for policy, run in row.runs.items():
        total_rows = run.dram.row_hits + run.dram.row_misses
        table.append([
            policy, run.makespan, run.index_dram_accesses,
            run.dram.row_hits / max(1, total_rows),
        ])
    return render_table(
        headers, table, "Ablation — walk-issue scheduling policies (METAL-IX)"
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="scan",
                        choices=sorted(WORKLOAD_BUILDERS))
    parser.add_argument("--scale", type=positive_float, default=0.25)


def run(args: argparse.Namespace) -> int:
    tables = ((geometry_cells(), format_geometry),
              (shared_vs_private_cells, format_shared_vs_private),
              (TOGGLE_CELLS, format_toggles))
    print("\n\n".join(
        fmt(run_grid((args.workload,), cells, args.scale)[0])
        for cells, fmt in tables))
    return 0
