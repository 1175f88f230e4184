"""Fig. 23 — METAL vs index size (record count and depth sweeps).

(a) JOIN with a growing record count across IX-cache sizes: patterns let
METAL absorb larger databases without a larger cache.
(b) JOIN with index depth swept upward: METAL-IX degrades faster than
METAL because it captures the reuse region less efficiently.
"""

from __future__ import annotations

from repro.bench.format import render_table
from repro.bench.grid import CellTable, GridRow

SCALING_SYSTEMS = ("metal_ix", "metal")
WORKLOADS = ("join",)

#: Fig. 23a's record counts: one grid row per scale.
RECORD_SCALES = (0.125, 0.25, 0.5)
#: Fig. 23b's scale.
DEPTH_SCALE = 0.25


def records_cells(
    cache_sizes: tuple[int, ...] = (4 * 1024, 8 * 1024, 16 * 1024),
) -> CellTable:
    """Fig. 23a: (cache bytes, system) cells."""
    return {
        (cache_bytes, kind): {"system": kind, "cache_bytes": cache_bytes}
        for cache_bytes in cache_sizes
        for kind in SCALING_SYSTEMS
    }


def depth_cells(
    depths: tuple[int, ...] = (6, 9, 12, 15), cache_bytes: int = 8 * 1024,
) -> CellTable:
    """Fig. 23b: (target depth, system) cells."""
    return {
        (depth, kind): {"system": kind, "cache_bytes": cache_bytes,
                        "workload_kwargs": {"depth": depth},
                        "collect": ("index_heights",)}
        for depth in depths
        for kind in SCALING_SYSTEMS
    }


def by_height(row: GridRow) -> dict[int, dict[str, float]]:
    """Fig. 23b's walk latency per system, keyed by the *built* inner-tree
    height (the depth target quantizes through the integer fan-out at
    reduced scale); the first depth to build a height keeps it."""
    cells: dict[int, dict[str, float]] = {}
    for depth in dict.fromkeys(depth for depth, _ in row.runs):
        height = row.extras[(depth, SCALING_SYSTEMS[0])]["index_heights"][0]
        if height not in cells:
            cells[height] = {kind: row.runs[(depth, kind)].avg_walk_latency
                             for kind in SCALING_SYSTEMS}
    return cells


def format_fig23a(rows: dict[float, GridRow]) -> str:
    """Fig. 23a from one ``records_cells`` row per scale."""
    headers = ["scale", "cache", "METAL-IX lat", "METAL lat"]
    table = [
        [scale, f"{cache // 1024}KB",
         row.runs[(cache, "metal_ix")].avg_walk_latency,
         row.runs[(cache, "metal")].avg_walk_latency]
        for scale, row in sorted(rows.items())
        for cache in sorted({cache for cache, _ in row.runs})
    ]
    return render_table(
        headers, table, "Fig. 23a — Walk latency vs record count x cache size (JOIN)"
    )


def format_fig23b(row: GridRow) -> str:
    headers = ["height", "METAL-IX lat", "METAL lat", "IX/MTL"]
    table = [
        [depth, cell["metal_ix"], cell["metal"],
         cell["metal_ix"] / max(1e-9, cell["metal"])]
        for depth, cell in sorted(by_height(row).items())
    ]
    return render_table(
        headers, table, "Fig. 23b — Walk latency vs index depth (JOIN)"
    )
