"""Fig. 24 — design sweep: tile count x IX-cache size, with regions.

The paper sweeps 16-128 tiles and 8 kB-2 MB caches and classifies each
point as Bandwidth-, Cache-, or Parallelism-limited. At our reduced scale
the tile counts and cache sizes shrink by the same ~4-8x factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.format import render_table
from repro.exec import Executor, RunSpec, default_executor
from repro.workloads.suite import PAPER_LABELS

DEFAULT_WORKLOADS = ("join", "spmm", "rtree")
DEFAULT_TILES = (4, 8, 16, 32)
DEFAULT_CACHES = (2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024)

#: Region classification thresholds (paper: Band.Lim is >= 50% of peak
#: HBM bandwidth).
BANDWIDTH_LIMIT = 0.5
MISS_LIMIT = 0.3


@dataclass
class SweepCell:
    workload: str
    tiles: int
    cache_bytes: int
    speedup: float
    bandwidth: float
    miss_rate: float

    @property
    def region(self) -> str:
        if self.bandwidth >= BANDWIDTH_LIMIT:
            return "band.lim"
        if self.miss_rate >= MISS_LIMIT:
            return "cache.lim"
        return "par.lim"


def run_sweep(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    tiles: tuple[int, ...] = DEFAULT_TILES,
    caches: tuple[int, ...] = DEFAULT_CACHES,
    scale: float = 0.25,
    base_tiles: int = 4,
    executor: Executor | None = None,
) -> list[SweepCell]:
    """Normalized speedup grid; base = small-tile streaming DSA."""
    executor = executor or default_executor()
    specs: list[RunSpec] = []
    grid: list[tuple[str, int, int]] = []
    for name in workloads:
        specs.append(RunSpec(
            workload=name, system="stream", scale=scale, tiles=base_tiles,
        ))
        grid.append((name, base_tiles, 0))
        for tile_count in tiles:
            for cache_bytes in caches:
                specs.append(RunSpec(
                    workload=name, system="metal", scale=scale,
                    tiles=tile_count, cache_bytes=cache_bytes,
                ))
                grid.append((name, tile_count, cache_bytes))
    folded = executor.run_results(specs)
    cells = []
    stride = 1 + len(tiles) * len(caches)
    for i, name in enumerate(workloads):
        block = folded[i * stride:(i + 1) * stride]
        base = block[0].makespan
        for (cell_name, tile_count, cache_bytes), run in zip(
            grid[i * stride + 1:(i + 1) * stride], block[1:]
        ):
            cells.append(
                SweepCell(
                    workload=cell_name,
                    tiles=tile_count,
                    cache_bytes=cache_bytes,
                    speedup=base / max(1, run.makespan),
                    bandwidth=run.bandwidth_utilization,
                    miss_rate=run.miss_rate,
                )
            )
    return cells


def format_fig24(cells: list[SweepCell]) -> str:
    headers = ["workload", "tiles", "cache", "speedup", "bw util", "region"]
    rows = [
        [PAPER_LABELS.get(c.workload, c.workload), c.tiles,
         f"{c.cache_bytes // 1024}KB", c.speedup, c.bandwidth, c.region]
        for c in cells
    ]
    return render_table(
        headers, rows,
        "Fig. 24 — Speedup vs cache size and tile count (base: small streaming DSA)",
    )
