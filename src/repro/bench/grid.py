"""The Section-5 grid: Table-2 workloads x memory organizations.

Every Section-5 experiment is a view of one matrix: each workload run on
a table of cells. :func:`run_grid` submits one
:class:`~repro.exec.RunSpec` per (workload, cell) and returns one
:class:`GridRow` per workload; the figure modules keep only a cells
table and a formatter.

A cell is a label plus the :meth:`RunSpec.make <repro.exec.RunSpec.make>`
arguments it sets (``system`` and any of ``cache_bytes``,
``cache_factor``, ``tiles``, ``schedule``, ``requests_slice``,
``workload_kwargs``, ``sim_kwargs``, ``cache_kwargs``, ``memsys_kwargs``,
``policy``, ``tuner`` and ``collect``). A cells table is one of:

* a sequence of names, each a system or one of :data:`VARIANTS`;
* a mapping of label -> ``RunSpec.make`` arguments;
* a function of the built workload returning such a mapping, for cells
  that depend on it (its request count, tile count or cache size).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Union

from repro.bench.runner import SYSTEMS
from repro.core.energy_model import (
    CacheEnergyModel,
    COMPUTE_OP_ENERGY_FJ,
    WALKER_STEP_ENERGY_FJ,
)
from repro.exec import Executor, RunSpec, default_executor, get_workload
from repro.sim.metrics import RunResult
from repro.workloads.suite import WORKLOAD_BUILDERS, WORKLOAD_CONFIGS, Workload

ALL_WORKLOADS = tuple(WORKLOAD_BUILDERS)

#: cell name -> RunSpec.make arguments, for cells that are not a plain system.
VARIANTS: dict[str, dict[str, Any]] = {
    # Fig. 15's 16x fully-associative OPT cache (the paper's "FA (1MB)").
    "fa_big": {"system": "fa_opt", "cache_factor": 16},
    # Fig. 20's "+Patterns": reuse descriptors with static parameters.
    "metal_static": {"system": "metal", "memsys_kwargs": {"tune": False}},
}

CellTable = Mapping[Hashable, Mapping[str, Any]]
Cells = Union[Sequence[str], CellTable, Callable[[Workload], CellTable]]


@dataclass
class GridRow:
    """One workload's runs and their ``collect``-ed extras, keyed by cell."""

    workload: str
    runs: dict[Hashable, RunResult] = field(default_factory=dict)
    extras: dict[Hashable, dict[str, Any]] = field(default_factory=dict)

    def speedups(self) -> dict[Hashable, float]:
        """Fig. 18: speedup over the streaming DSA."""
        base = self.runs["stream"].makespan
        return {k: base / max(1, r.makespan) for k, r in self.runs.items()}

    def miss_rates(self) -> dict[Hashable, float]:
        return {k: r.miss_rate for k, r in self.runs.items()}

    def working_sets(self) -> dict[Hashable, float]:
        return {k: r.working_set_fraction for k, r in self.runs.items()}

    def walk_latencies(self) -> dict[Hashable, float]:
        return {k: r.avg_walk_latency for k, r in self.runs.items()}

    def dram_normalized(self) -> dict[Hashable, float]:
        """Fig. 19: DRAM dynamic energy normalized to streaming."""
        base = self.runs["stream"].dram_energy_fj or 1.0
        return {k: r.dram_energy_fj / base for k, r in self.runs.items()}

    def cache_energy_fj(self) -> dict[Hashable, float]:
        """Fig. 25 top: per-organization cache energy."""
        model = CacheEnergyModel()
        return {
            k: model.cache_energy(
                r.name, r.cache_stats.accesses if r.cache_stats else 0)
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


def _table(cells: Cells, name: str, scale: float, seed: int) -> CellTable:
    if callable(cells):
        return cells(get_workload(name, scale, seed))
    if isinstance(cells, Mapping):
        return cells
    return {cell: VARIANTS.get(cell, {"system": cell}) for cell in cells}


def run_grid(
    workloads: tuple[str, ...] = ALL_WORKLOADS,
    cells: Cells = SYSTEMS,
    scale: float = 0.25,
    executor: Executor | None = None,
    seed: int = 0,
) -> list[GridRow]:
    """Run every (workload, cell) pair; one row per workload.

    Every spec is built, and so checked, before any cell runs.
    """
    executor = executor or default_executor()
    tables = [(name, _table(cells, name, scale, seed)) for name in workloads]
    outcomes = iter(executor.run([
        RunSpec.make(name, scale=scale, seed=seed, **args)
        for name, table in tables for args in table.values()
    ]))
    rows = []
    for name, table in tables:
        row = GridRow(name)
        for label in table:
            outcome = next(outcomes)
            row.runs[label] = outcome.require()
            row.extras[label] = outcome.extras
        rows.append(row)
    return rows
