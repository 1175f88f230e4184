"""Fig. 19 (DRAM energy), Fig. 25 (cache energy + on-chip breakdown).

Energy = per-access cost x #accesses (Section 5.7). METAL's range match
costs more per access (9000 fJ vs 7000 fJ) but short-circuiting removes
whole accesses, so totals drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.format import render_table
from repro.bench.runner import SYSTEMS
from repro.core.energy_model import (
    CacheEnergyModel,
    COMPUTE_OP_ENERGY_FJ,
    WALKER_STEP_ENERGY_FJ,
)
from repro.exec import Executor, RunSpec, default_executor
from repro.sim.metrics import RunResult
from repro.workloads.suite import PAPER_LABELS, WORKLOAD_CONFIGS

DEFAULT_WORKLOADS = (
    "scan", "sets", "sets_s", "spmm", "spmm_s", "select", "where", "join",
    "rtree", "pagerank",
)


@dataclass
class EnergyResult:
    workload: str
    runs: dict[str, RunResult] = field(default_factory=dict)
    compute_ops: int = 0

    def dram_normalized(self) -> dict[str, float]:
        """Fig. 19: DRAM dynamic energy normalized to streaming."""
        base = self.runs["stream"].dram_energy_fj or 1.0
        return {k: r.dram_energy_fj / base for k, r in self.runs.items()}

    def cache_energy_fj(self) -> dict[str, float]:
        """Fig. 25 top: per-organization cache energy."""
        model = CacheEnergyModel()
        return {
            k: model.cache_energy(k, r.cache_stats.accesses if r.cache_stats else 0)
            for k, r in self.runs.items()
        }

    def onchip_breakdown(self, kind: str = "metal") -> dict[str, float]:
        """Fig. 25 bottom: tile vs IX-cache vs walker+controller energy."""
        run = self.runs[kind]
        cache = self.cache_energy_fj()[kind]
        walker = run.nodes_visited * WALKER_STEP_ENERGY_FJ
        compute = self.compute_ops * COMPUTE_OP_ENERGY_FJ
        total = cache + walker + compute
        if total == 0:
            return {"tile": 0.0, "ix_cache": 0.0, "walker": 0.0}
        return {
            "tile": compute / total,
            "ix_cache": cache / total,
            "walker": walker / total,
        }


def run_energy(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    scale: float = 0.25,
    executor: Executor | None = None,
) -> list[EnergyResult]:
    executor = executor or default_executor()
    specs = [
        RunSpec(workload=name, system=kind, scale=scale)
        for name in workloads
        for kind in SYSTEMS
    ]
    folded = executor.run_results(specs)
    results = []
    for i, name in enumerate(workloads):
        config = WORKLOAD_CONFIGS[name]
        runs = dict(zip(SYSTEMS, folded[i * len(SYSTEMS):(i + 1) * len(SYSTEMS)]))
        # One compute op bundle per walk (Table-2 intensity is uniform
        # across a workload's requests).
        ops = runs["stream"].num_walks * config.ops_per_compute
        results.append(EnergyResult(name, runs, compute_ops=ops))
    return results


def format_fig19(results: list[EnergyResult]) -> str:
    headers = ["workload", *SYSTEMS]
    rows = []
    for result in results:
        norm = result.dram_normalized()
        rows.append([PAPER_LABELS.get(result.workload, result.workload)]
                    + [norm[s] for s in SYSTEMS])
    return render_table(
        headers, rows, "Fig. 19 — Normalized DRAM energy (lower is better)"
    )


def format_fig25(results: list[EnergyResult]) -> str:
    headers = ["workload", "addr (nJ)", "xcache (nJ)", "metal (nJ)",
               "metal/addr accesses", "tile%", "ix%", "walker%"]
    rows = []
    for result in results:
        energy = result.cache_energy_fj()
        addr_acc = result.runs["address"].cache_stats.accesses or 1
        metal_acc = result.runs["metal"].cache_stats.accesses
        breakdown = result.onchip_breakdown()
        rows.append([
            PAPER_LABELS.get(result.workload, result.workload),
            energy["address"] / 1e6,
            energy["xcache"] / 1e6,
            energy["metal"] / 1e6,
            metal_acc / addr_acc,
            breakdown["tile"] * 100,
            breakdown["ix_cache"] * 100,
            breakdown["walker"] * 100,
        ])
    return render_table(
        headers, rows,
        "Fig. 25 — Cache energy (top) and on-chip energy breakdown (bottom)",
    )
