"""Figs. 15-17 — miss rate, working set, walk latency across organizations.

Section 5.1's "initial investigation on why METAL's cache organization is
fundamentally more effective": compares METAL against X-cache and a
fully-associative OPT address cache at equal capacity, plus a 16x-larger
FA address cache (the paper's "FA (1MB)").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.format import render_table
from repro.exec import Executor, RunSpec, default_executor
from repro.sim.metrics import RunResult
from repro.workloads.suite import PAPER_LABELS

#: Organizations of Figs. 15-17, plus the 16x FA cache of Observation 6.
TREND_SYSTEMS = ("fa_opt", "xcache", "metal_ix", "metal")
DEFAULT_WORKLOADS = ("scan", "sets", "spmm", "join", "rtree", "pagerank")


@dataclass
class TrendResult:
    """Per-workload, per-system metrics behind Figs. 15-17."""

    workload: str
    runs: dict[str, RunResult] = field(default_factory=dict)

    def miss_rates(self) -> dict[str, float]:
        return {k: r.miss_rate for k, r in self.runs.items()}

    def working_sets(self) -> dict[str, float]:
        return {k: r.working_set_fraction for k, r in self.runs.items()}

    def walk_latencies(self) -> dict[str, float]:
        return {k: r.avg_walk_latency for k, r in self.runs.items()}


def run_trends(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    scale: float = 0.25,
    big_factor: int = 16,
    executor: Executor | None = None,
) -> list[TrendResult]:
    """Run the Fig. 15-17 comparison; includes the big FA address cache."""
    executor = executor or default_executor()
    cell_systems = (*TREND_SYSTEMS, "fa_big", "stream")
    specs: list[RunSpec] = []
    for name in workloads:
        for kind in TREND_SYSTEMS:
            specs.append(RunSpec(workload=name, system=kind, scale=scale))
        specs.append(RunSpec(
            workload=name, system="fa_opt", scale=scale,
            cache_factor=big_factor,
        ))
        specs.append(RunSpec(workload=name, system="stream", scale=scale))
    folded = executor.run_results(specs)
    results = []
    stride = len(cell_systems)
    for i, name in enumerate(workloads):
        trend = TrendResult(name)
        trend.runs = dict(zip(cell_systems, folded[i * stride:(i + 1) * stride]))
        results.append(trend)
    return results


def _table(results: list[TrendResult], metric: str, title: str) -> str:
    systems = ["fa_opt", "fa_big", "xcache", "metal_ix", "metal"]
    headers = ["workload", *systems]
    rows = []
    for trend in results:
        values = getattr(trend, metric)()
        rows.append([PAPER_LABELS.get(trend.workload, trend.workload)]
                    + [values.get(s, float("nan")) for s in systems])
    return render_table(headers, rows, title)


def format_fig15(results: list[TrendResult]) -> str:
    return _table(results, "miss_rates", "Fig. 15 — Miss rate (lower is better)")


def format_fig16(results: list[TrendResult]) -> str:
    return _table(
        results, "working_sets",
        "Fig. 16 — Working set: fraction of index walk traffic served by DRAM",
    )


def format_fig17(results: list[TrendResult]) -> str:
    return _table(
        results, "walk_latencies", "Fig. 17 — Average walk latency in cycles"
    )
