"""Robustness: headline ratios across workload seeds.

The paper reports single-run numbers from deterministic simulation; our
workloads are synthetic, so this module quantifies how much the headline
ratios move across generator seeds — the reproduction's error bars.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.bench.format import render_table
from repro.exec import Executor, RunSpec, default_executor

DEFAULT_BASELINES = ("stream", "address", "xcache")


@dataclass
class SeedSweep:
    workload: str
    seeds: tuple[int, ...]
    #: baseline -> list of per-seed METAL-advantage ratios.
    ratios: dict[str, list[float]] = field(default_factory=dict)

    def mean(self, baseline: str) -> float:
        return statistics.fmean(self.ratios[baseline])

    def stdev(self, baseline: str) -> float:
        values = self.ratios[baseline]
        return statistics.stdev(values) if len(values) > 1 else 0.0


def run_seed_sweep(
    workload_name: str = "scan",
    seeds: tuple[int, ...] = (0, 1, 2, 3),
    scale: float = 0.15,
    baselines: tuple[str, ...] = DEFAULT_BASELINES,
    executor: Executor | None = None,
) -> SeedSweep:
    executor = executor or default_executor()
    kinds = (*baselines, "metal")
    specs = [
        RunSpec(workload=workload_name, system=kind, scale=scale, seed=seed)
        for seed in seeds
        for kind in kinds
    ]
    folded = executor.run_results(specs)
    sweep = SeedSweep(workload_name, seeds, {b: [] for b in baselines})
    for i, _seed in enumerate(seeds):
        runs = dict(zip(kinds, folded[i * len(kinds):(i + 1) * len(kinds)]))
        metal = runs["metal"].makespan
        for baseline in baselines:
            sweep.ratios[baseline].append(
                runs[baseline].makespan / max(1, metal)
            )
    return sweep


def format_seed_sweep(sweep: SeedSweep) -> str:
    headers = ["baseline", "mean ratio", "stdev", "min", "max"]
    rows = []
    for baseline, values in sweep.ratios.items():
        rows.append([
            baseline, sweep.mean(baseline), sweep.stdev(baseline),
            min(values), max(values),
        ])
    return render_table(
        headers, rows,
        f"Robustness — METAL advantage on {sweep.workload} over "
        f"{len(sweep.seeds)} seeds",
    )
