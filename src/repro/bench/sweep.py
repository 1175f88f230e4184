"""Fig. 24 — design sweep: tile count x IX-cache size, with regions.

The paper sweeps 16-128 tiles and 8 kB-2 MB caches and classifies each
point as Bandwidth-, Cache-, or Parallelism-limited. At our reduced scale
the tile counts and cache sizes shrink by the same ~4-8x factor.
"""

from __future__ import annotations

from repro.bench.format import render_table
from repro.bench.grid import CellTable, GridRow
from repro.sim.metrics import RunResult
from repro.workloads.suite import PAPER_LABELS

DEFAULT_WORKLOADS = ("join", "spmm", "rtree")
DEFAULT_TILES = (4, 8, 16, 32)
DEFAULT_CACHES = (2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024)

#: Region classification thresholds (paper: Band.Lim is >= 50% of peak
#: HBM bandwidth).
BANDWIDTH_LIMIT = 0.5
MISS_LIMIT = 0.3


def design_cells(
    tiles: tuple[int, ...] = DEFAULT_TILES,
    caches: tuple[int, ...] = DEFAULT_CACHES,
    base_tiles: int = 4,
) -> CellTable:
    """Fig. 24: METAL per (tiles, cache bytes), over a small-tile
    streaming base (``GridRow.speedups`` normalizes to it)."""
    table: dict = {"stream": {"system": "stream", "tiles": base_tiles}}
    for tile_count in tiles:
        for cache_bytes in caches:
            table[(tile_count, cache_bytes)] = {
                "system": "metal", "tiles": tile_count,
                "cache_bytes": cache_bytes,
            }
    return table


def region(run: RunResult) -> str:
    if run.bandwidth_utilization >= BANDWIDTH_LIMIT:
        return "band.lim"
    if run.miss_rate >= MISS_LIMIT:
        return "cache.lim"
    return "par.lim"


def format_fig24(rows: list[GridRow]) -> str:
    headers = ["workload", "tiles", "cache", "speedup", "bw util", "region"]
    table = []
    for row in rows:
        speedups = row.speedups()
        for label, run in row.runs.items():
            if label == "stream":
                continue
            tile_count, cache_bytes = label
            table.append([
                PAPER_LABELS.get(row.workload, row.workload), tile_count,
                f"{cache_bytes // 1024}KB", speedups[label],
                run.bandwidth_utilization, region(run),
            ])
    return render_table(
        headers, table,
        "Fig. 24 — Speedup vs cache size and tile count (base: small streaming DSA)",
    )
