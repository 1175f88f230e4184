"""The Section-5 grid: Table-2 workloads x memory organizations.

Figs. 15-20 and 25 and Table 3 are views of one matrix: every workload
run on the same memory organizations. :func:`run_grid` submits one
:class:`~repro.exec.RunSpec` per (workload, cell) and returns one
:class:`GridRow` per workload; the figure modules only format rows.

A cell is a system name or one of :data:`VARIANTS`, a system with one
spec override.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bench.runner import SYSTEMS
from repro.core.energy_model import (
    CacheEnergyModel,
    COMPUTE_OP_ENERGY_FJ,
    WALKER_STEP_ENERGY_FJ,
)
from repro.exec import Executor, RunSpec, default_executor
from repro.sim.metrics import RunResult
from repro.workloads.suite import WORKLOAD_BUILDERS, WORKLOAD_CONFIGS

ALL_WORKLOADS = tuple(WORKLOAD_BUILDERS)

#: cell name -> RunSpec.make arguments, for cells that are not a plain system.
VARIANTS: dict[str, dict[str, Any]] = {
    # Fig. 15's 16x fully-associative OPT cache (the paper's "FA (1MB)").
    "fa_big": {"system": "fa_opt", "cache_factor": 16},
    # Fig. 20's "+Patterns": reuse descriptors with static parameters.
    "metal_static": {"system": "metal", "memsys_kwargs": {"tune": False}},
}


@dataclass
class GridRow:
    """One workload's runs, keyed by cell."""

    workload: str
    runs: dict[str, RunResult] = field(default_factory=dict)

    def speedups(self) -> dict[str, float]:
        """Fig. 18: speedup over the streaming DSA."""
        base = self.runs["stream"].makespan
        return {k: base / max(1, r.makespan) for k, r in self.runs.items()}

    def miss_rates(self) -> dict[str, float]:
        return {k: r.miss_rate for k, r in self.runs.items()}

    def working_sets(self) -> dict[str, float]:
        return {k: r.working_set_fraction for k, r in self.runs.items()}

    def walk_latencies(self) -> dict[str, float]:
        return {k: r.avg_walk_latency for k, r in self.runs.items()}

    def dram_normalized(self) -> dict[str, float]:
        """Fig. 19: DRAM dynamic energy normalized to streaming."""
        base = self.runs["stream"].dram_energy_fj or 1.0
        return {k: r.dram_energy_fj / base for k, r in self.runs.items()}

    def cache_energy_fj(self) -> dict[str, float]:
        """Fig. 25 top: per-organization cache energy."""
        model = CacheEnergyModel()
        return {
            k: model.cache_energy(
                VARIANTS.get(k, {"system": k})["system"],
                r.cache_stats.accesses if r.cache_stats else 0)
            for k, r in self.runs.items()
        }

    def onchip_breakdown(self, kind: str = "metal") -> dict[str, float]:
        """Fig. 25 bottom: tile vs IX-cache vs walker+controller energy."""
        run = self.runs[kind]
        cache = self.cache_energy_fj()[kind]
        walker = run.nodes_visited * WALKER_STEP_ENERGY_FJ
        # One compute op bundle per walk (Table-2 intensity is uniform
        # across a workload's requests).
        compute_ops = (self.runs["stream"].num_walks
                       * WORKLOAD_CONFIGS[self.workload].ops_per_compute)
        compute = compute_ops * COMPUTE_OP_ENERGY_FJ
        total = cache + walker + compute
        if total == 0:
            return {"tile": 0.0, "ix_cache": 0.0, "walker": 0.0}
        return {
            "tile": compute / total,
            "ix_cache": cache / total,
            "walker": walker / total,
        }


def run_grid(
    workloads: tuple[str, ...] = ALL_WORKLOADS,
    cells: tuple[str, ...] = SYSTEMS,
    scale: float = 0.25,
    executor: Executor | None = None,
) -> list[GridRow]:
    """Run every (workload, cell) pair; one row per workload."""
    executor = executor or default_executor()
    folded = executor.run_results([
        RunSpec.make(name, scale=scale, **VARIANTS.get(cell, {"system": cell}))
        for name in workloads for cell in cells
    ])
    stride = len(cells)
    return [
        GridRow(name, dict(zip(cells, folded[i * stride:(i + 1) * stride])))
        for i, name in enumerate(workloads)
    ]
