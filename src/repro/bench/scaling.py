"""Fig. 23 — METAL vs index size (record count and depth sweeps).

(a) JOIN with a growing record count across IX-cache sizes: patterns let
METAL absorb larger databases without a larger cache.
(b) JOIN with index depth swept upward: METAL-IX degrades faster than
METAL because it captures the reuse region less efficiently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.format import render_table
from repro.exec import Executor, RunSpec, default_executor

SCALING_SYSTEMS = ("metal_ix", "metal")


@dataclass
class ScalingResult:
    """Average walk latency per (config, system) cell."""

    records_sweep: dict[tuple[float, int], dict[str, float]] = field(default_factory=dict)
    depth_sweep: dict[int, dict[str, float]] = field(default_factory=dict)


def run_records_sweep(
    scales: tuple[float, ...] = (0.125, 0.25, 0.5),
    cache_sizes: tuple[int, ...] = (4 * 1024, 8 * 1024, 16 * 1024),
    executor: Executor | None = None,
) -> dict[tuple[float, int], dict[str, float]]:
    """Fig. 23a: record count x cache size -> walk latency per system."""
    executor = executor or default_executor()
    specs = [
        RunSpec(workload="join", system=kind, scale=scale, cache_bytes=cache_bytes)
        for scale in scales
        for cache_bytes in cache_sizes
        for kind in SCALING_SYSTEMS
    ]
    folded = iter(executor.run_results(specs))
    cells: dict[tuple[float, int], dict[str, float]] = {}
    for scale in scales:
        for cache_bytes in cache_sizes:
            cells[(scale, cache_bytes)] = {
                kind: next(folded).avg_walk_latency for kind in SCALING_SYSTEMS
            }
    return cells


def run_depth_sweep(
    depths: tuple[int, ...] = (6, 9, 12, 15),
    scale: float = 0.25,
    cache_bytes: int = 8 * 1024,
    executor: Executor | None = None,
) -> dict[int, dict[str, float]]:
    """Fig. 23b: index depth -> walk latency per system.

    Cells are keyed by the *built* inner-tree height (the depth target
    quantizes through the integer fan-out at reduced scale).
    """
    executor = executor or default_executor()
    specs = [
        RunSpec.make(
            "join", kind, scale=scale, cache_bytes=cache_bytes,
            workload_kwargs={"depth": depth},
            collect=("index_heights",),
        )
        for depth in depths
        for kind in SCALING_SYSTEMS
    ]
    outcomes = iter(executor.run(specs))
    cells: dict[int, dict[str, float]] = {}
    for _depth in depths:
        cell_outcomes = [next(outcomes) for _ in SCALING_SYSTEMS]
        cell_outcomes[0].require()
        # The inner tree is the first index; key by its built height.
        height = cell_outcomes[0].extras["index_heights"][0]
        if height in cells:
            continue
        cells[height] = {
            kind: outcome.require().avg_walk_latency
            for kind, outcome in zip(SCALING_SYSTEMS, cell_outcomes)
        }
    return cells


def run_scaling(executor: Executor | None = None, **kw) -> ScalingResult:
    return ScalingResult(
        records_sweep=run_records_sweep(executor=executor),
        depth_sweep=run_depth_sweep(executor=executor),
    )


def format_fig23a(cells: dict[tuple[float, int], dict[str, float]]) -> str:
    headers = ["scale", "cache", "METAL-IX lat", "METAL lat"]
    rows = [
        [scale, f"{cache // 1024}KB", cell["metal_ix"], cell["metal"]]
        for (scale, cache), cell in sorted(cells.items())
    ]
    return render_table(
        headers, rows, "Fig. 23a — Walk latency vs record count x cache size (JOIN)"
    )


def format_fig23b(cells: dict[int, dict[str, float]]) -> str:
    headers = ["height", "METAL-IX lat", "METAL lat", "IX/MTL"]
    rows = [
        [depth, cell["metal_ix"], cell["metal"],
         cell["metal_ix"] / max(1e-9, cell["metal"])]
        for depth, cell in sorted(cells.items())
    ]
    return render_table(
        headers, rows, "Fig. 23b — Walk latency vs index depth (JOIN)"
    )
