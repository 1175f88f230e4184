"""Fig. 20 — breakdown of METAL's speedup into its three factors.

IX: the IX-cache alone with the hardwired utility policy (METAL-IX).
Patterns: reuse managed by descriptors with static parameters (tune off).
Params: dynamic parameter tuning enabled (full METAL).
All normalized to the streaming DSA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.format import render_table
from repro.exec import Executor, RunSpec, default_executor
from repro.workloads.suite import PAPER_LABELS, Workload

DEFAULT_WORKLOADS = (
    "scan", "sets", "spmm", "select", "where", "join", "rtree", "pagerank",
)

#: (workload, systems) pairs for the cycle-attribution cross-check: one
#: pointer-chasing and one graph workload, streaming vs full METAL.
ATTRIBUTION_WORKLOADS = ("scan", "pagerank")
ATTRIBUTION_SYSTEMS = ("stream", "metal")


@dataclass
class BreakdownResult:
    workload: str
    ix: float
    patterns: float
    params: float


def run_breakdown(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    scale: float = 0.25,
    prebuilt: dict[str, Workload] | None = None,
    executor: Executor | None = None,
) -> list[BreakdownResult]:
    executor = executor or default_executor()
    executor.seed_workloads(prebuilt)
    specs: list[RunSpec] = []
    for name in workloads:
        workload = (prebuilt or {}).get(name)
        cell_scale = workload.scale if workload is not None else scale
        seed = workload.seed if workload is not None else 0
        base = dict(workload=name, scale=cell_scale, seed=seed)
        specs.append(RunSpec(system="stream", **base))
        specs.append(RunSpec(system="metal_ix", **base))
        specs.append(RunSpec.make(
            system="metal", memsys_kwargs={"tune": False}, **base
        ))
        # tune=True is build_memsys's default: this cell dedups with the
        # Fig. 18 metal cell instead of recomputing it.
        specs.append(RunSpec(system="metal", **base))
    folded = executor.run_results(specs)
    results = []
    for i, name in enumerate(workloads):
        base_run, ix, patterns, params = folded[i * 4:(i + 1) * 4]
        results.append(
            BreakdownResult(
                name,
                ix=base_run.makespan / max(1, ix.makespan),
                patterns=base_run.makespan / max(1, patterns.makespan),
                params=base_run.makespan / max(1, params.makespan),
            )
        )
    return results


@dataclass
class AttributionResult:
    """Where one (workload, system) run's walk cycles actually went."""

    workload: str
    system: str
    total_walk_cycles: int
    #: category -> cycles, over repro.obs.profile.ATTRIBUTION_CATEGORIES.
    totals: dict[str, int]
    dropped: int = 0

    def fraction(self, category: str) -> float:
        if self.total_walk_cycles == 0:
            return 0.0
        return self.totals.get(category, 0) / self.total_walk_cycles


def run_attribution(
    workloads: tuple[str, ...] = ATTRIBUTION_WORKLOADS,
    systems: tuple[str, ...] = ATTRIBUTION_SYSTEMS,
    scale: float = 0.25,
    prebuilt: dict[str, Workload] | None = None,
    trace_buffer: int = 1 << 22,
    executor: Executor | None = None,
) -> list[AttributionResult]:
    """Traced runs folded into per-component cycle attribution.

    This is the mechanism behind the Fig. 20 factor breakdown, measured
    directly: the speedup METAL's stages buy shows up here as the DRAM
    components (queue/hit/miss) shrinking relative to the streaming DSA.
    Attribution is exact — per walk, the components sum to the measured
    walk latency — unless the ring buffer dropped events (``dropped``).
    """
    executor = executor or default_executor()
    executor.seed_workloads(prebuilt)
    specs: list[RunSpec] = []
    cells: list[tuple[str, str]] = []
    for name in workloads:
        workload = (prebuilt or {}).get(name)
        cell_scale = workload.scale if workload is not None else scale
        seed = workload.seed if workload is not None else 0
        for system in systems:
            cells.append((name, system))
            specs.append(RunSpec.make(
                name, system, scale=cell_scale, seed=seed,
                sim_kwargs={"trace": True, "trace_buffer": trace_buffer},
                collect=("attribution",),
            ))
    results = []
    for (name, system), outcome in zip(cells, executor.run(specs)):
        run = outcome.require()
        attribution = outcome.extras["attribution"]
        results.append(
            AttributionResult(
                workload=name,
                system=system,
                total_walk_cycles=run.total_walk_cycles,
                totals=dict(attribution["totals"]),
                dropped=attribution["dropped"],
            )
        )
    return results


def format_attribution(results: list[AttributionResult]) -> str:
    from repro.obs.profile import ATTRIBUTION_CATEGORIES

    headers = ["workload", "system", "walk cycles"] + [
        f"{cat} %" for cat in ATTRIBUTION_CATEGORIES
    ]
    rows = []
    for r in results:
        rows.append(
            [PAPER_LABELS.get(r.workload, r.workload), r.system,
             r.total_walk_cycles]
            + [100.0 * r.fraction(cat) for cat in ATTRIBUTION_CATEGORIES]
        )
    note = ""
    dropped = sum(r.dropped for r in results)
    if dropped:
        note = f" ({dropped} events dropped; attribution approximate)"
    return render_table(
        headers, rows,
        "Cycle attribution — where walk latency goes, per component" + note,
    )


def format_fig20(results: list[BreakdownResult]) -> str:
    headers = ["workload", "IX only", "+Patterns", "+Params"]
    rows = [
        [PAPER_LABELS.get(r.workload, r.workload), r.ix, r.patterns, r.params]
        for r in results
    ]
    return render_table(
        headers, rows,
        "Fig. 20 — Speedup vs streaming, by contributing factor",
    )
