"""Fig. 21 — what lives in the IX-cache, by index level.

Compares METAL-IX's greedy occupancy against pattern-managed METAL for the
workloads the paper plots (Scan, SpMM, Sets, SpMM-S). Sorted-set skip
lists can be arbitrarily deep, so — like the paper — levels are reported
as-is (level 1 = head of the structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.format import render_table
from repro.exec import Executor, RunSpec, default_executor
from repro.workloads.suite import PAPER_LABELS, Workload

DEFAULT_WORKLOADS = ("scan", "spmm", "sets", "spmm_s")


@dataclass
class OccupancyResult:
    workload: str
    height: int
    by_level: dict[str, dict[int, int]] = field(default_factory=dict)


def run_occupancy(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    scale: float = 0.25,
    prebuilt: dict[str, Workload] | None = None,
    executor: Executor | None = None,
) -> list[OccupancyResult]:
    executor = executor or default_executor()
    executor.seed_workloads(prebuilt)
    kinds = ("metal_ix", "metal")
    specs: list[RunSpec] = []
    for name in workloads:
        workload = (prebuilt or {}).get(name)
        cell_scale = workload.scale if workload is not None else scale
        seed = workload.seed if workload is not None else 0
        for kind in kinds:
            specs.append(RunSpec.make(
                name, kind, scale=cell_scale, seed=seed,
                collect=("occupancy_by_level", "index_heights"),
            ))
    outcomes = executor.run(specs)
    results = []
    for i, name in enumerate(workloads):
        cell = outcomes[i * len(kinds):(i + 1) * len(kinds)]
        for outcome in cell:
            outcome.require()
        entry = OccupancyResult(name, max(cell[0].extras["index_heights"]))
        for kind, outcome in zip(kinds, cell):
            occupancy = outcome.extras["occupancy_by_level"]
            entry.by_level[kind] = dict(
                sorted((int(level), n) for level, n in occupancy.items())
            )
        results.append(entry)
    return results


def format_fig21(results: list[OccupancyResult]) -> str:
    max_level = max(
        (lvl for r in results for occ in r.by_level.values() for lvl in occ),
        default=0,
    )
    headers = ["workload", "system", *[f"L{l}" for l in range(max_level + 1)]]
    rows = []
    for result in results:
        for kind, occupancy in result.by_level.items():
            label = "MTL" if kind == "metal" else "IX"
            rows.append(
                [PAPER_LABELS.get(result.workload, result.workload), label]
                + [occupancy.get(l, 0) for l in range(max_level + 1)]
            )
    return render_table(
        headers, rows, "Fig. 21 — IX-cache entries per index level"
    )
