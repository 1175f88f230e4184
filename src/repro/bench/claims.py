"""The paper's Section-5 claims, each stated once.

Every ordering, floor and ratio this reproduction holds METAL's
evaluation to is one :class:`Claim` row of :data:`CLAIMS`. A row names
the experiment that measures it (a cells table of the Section-5 grid,
:func:`repro.bench.grid.run_grid`, whose rows the measure reads; a
published table; or single runs through :class:`Cells`), the
workloads, scales and seeds it is stated for, a measure over the
experiment's result, and the :class:`Rule` every measured value must
satisfy. :func:`evaluate` runs each (experiment, workloads, scale, seed)
once and returns one :class:`Verdict` per row; ``tests/test_claims.py``
requires every row to hold, and ``python -m repro report`` renders the
rows that carry the paper's own value beside the value measured at the
report's scale.

Rows state what holds at their scales, not what the paper states at
1x: at scale 0.1 METAL loses to X-cache on ``sets_s`` and to the
address cache on ``rtree`` and ``pagerank``, so no row claims those
orderings. Nor does any row claim METAL's DRAM-energy or METAL-IX's
speedup advantage over the address cache: both hold at scale 0.15 only
while ``FiberMatrix.walk_from`` lets ``spmm_s`` skip its fetches
(ROADMAP item 1).
"""

from __future__ import annotations

import operator
import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.bench import (
    ablation,
    adaptivity,
    breakdown,
    grid,
    occupancy,
    scaling,
    speedup,
    sweep,
    tagmatch,
    trends,
)
from repro.bench.format import geomean, render_table
from repro.exec import Executor, RunSpec, default_executor, get_workload
from repro.params import IXCACHE_ENERGY_FJ
from repro.sim.metrics import RunResult
from repro.workloads.suite import WORKLOAD_BUILDERS

#: The scale the figure claims are stated at (workloads ~170x below the
#: paper's; see DESIGN.md).
FIGURE_SCALE = 0.15
#: The scale the numbered observations are stated at.
OBSERVATION_SCALE = 0.12
#: ``scales`` of a row whose experiment takes no scale (published tables).
NO_SCALE = (None,)

TREND_WORKLOADS = trends.DEFAULT_WORKLOADS
ALL_WORKLOADS = grid.ALL_WORKLOADS


# --------------------------------------------------------------------- #
# Rules
# --------------------------------------------------------------------- #

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
            "<=": operator.le, "==": operator.eq}


@dataclass(frozen=True)
class Rule:
    """What a row's measured values must satisfy.

    ``>``, ``>=``, ``<``, ``<=`` and ``==`` hold when every value (each
    workload at each scale and seed) compares true against ``bound``;
    ``in`` when ``bound < value <= upper``. Three rules read the values
    together: ``mean>`` (their mean exceeds ``bound``), ``cv<`` (stdev
    below ``bound`` times the mean) and ``grows`` (the last value, in
    grid order, exceeds the first).
    """

    op: str
    bound: float = 0.0
    upper: float | None = None

    def __post_init__(self) -> None:
        if self.op not in (*_COMPARE, "in", "mean>", "cv<", "grows"):
            raise ValueError(f"unknown rule {self.op!r}")
        if (self.op == "in") != (self.upper is not None):
            raise ValueError("an 'in' rule needs an upper bound, and only it")

    def holds(self, values: Sequence[float]) -> bool:
        if not values:
            return False
        if self.op in _COMPARE:
            return all(_COMPARE[self.op](v, self.bound) for v in values)
        if self.op == "in":
            return all(self.bound < v <= self.upper for v in values)
        if self.op == "grows":
            return values[-1] > values[0]
        if self.op == "mean>":
            return statistics.fmean(values) > self.bound
        return statistics.stdev(values) < self.bound * statistics.fmean(values)

    def summary(self, values: Sequence[float]) -> float:
        """The one number reported for ``values``: the point nearest to
        failing, or the aggregate the rule reads."""
        if self.op in (">", ">="):
            return min(values)
        if self.op in ("<", "<="):
            return max(values)
        if self.op == "mean>":
            return statistics.fmean(values)
        if self.op == "cv<":
            return statistics.stdev(values) / statistics.fmean(values)
        if self.op == "grows":
            return values[-1] / values[0]
        if self.op == "in":
            return max(values, key=lambda v: max(self.bound - v, v - self.upper))
        return max(values, key=lambda v: abs(v - self.bound))

    def __str__(self) -> str:
        if self.op == "in":
            return f"in ({self.bound:g}, {self.upper:g}]"
        if self.op == "grows":
            return "last > first"
        if self.op == "cv<":
            return f"stdev < {self.bound:g} x mean"
        return f"{self.op} {self.bound:g}"


# --------------------------------------------------------------------- #
# Experiments
# --------------------------------------------------------------------- #

class Cells:
    """Single runs of one workload, simulated on first use.

    For claims stated over a few (system, cache size) runs rather than a
    figure's grid. Cells go through the executor, so they share results
    with every figure grid that ran the same spec.
    """

    def __init__(self, workload: str, scale: float, seed: int,
                 executor: Executor) -> None:
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.executor = executor

    def __call__(self, system: str, cache_kb: int | None = None) -> RunResult:
        spec = RunSpec(
            workload=self.workload, system=system, scale=self.scale,
            seed=self.seed,
            cache_bytes=cache_kb * 1024 if cache_kb else None,
        )
        return self.executor.run_results([spec])[0]

    def index_height(self) -> int:
        """Height of the workload's first index."""
        workload = get_workload(self.workload, self.scale, self.seed)
        return workload.indexes[0].height


def _grid(cells: grid.Cells) -> Callable[..., list[grid.GridRow]]:
    """An experiment that runs ``cells`` over the row's workloads."""
    return lambda workloads, scale, seed, executor: grid.run_grid(
        workloads, cells, scale, executor, seed)


#: name -> experiment(workloads, scale, seed, executor).
EXPERIMENTS: dict[str, Callable[..., Any]] = {
    "tagmatch": lambda workloads, scale, seed, executor: tagmatch.run_tagmatch(),
    # Every registered workload when a row names none.
    "table2": lambda workloads, scale, seed, executor: [
        get_workload(name, scale, seed)
        for name in workloads or WORKLOAD_BUILDERS],
    "cells": lambda workloads, scale, seed, executor: {
        name: Cells(name, scale, seed, executor) for name in workloads},
    "trends": _grid(trends.TREND_CELLS),
    "speedups": _grid(grid.SYSTEMS),
    "breakdown": _grid(breakdown.BREAKDOWN_CELLS),
    "occupancy": _grid(occupancy.OCCUPANCY_CELLS),
    "adaptivity": _grid(adaptivity.cells),
    "records_sweep": _grid(scaling.records_cells((4 * 1024, 8 * 1024))),
    "depth_sweep": _grid(scaling.depth_cells((6, 9, 12, 15))),
    "design_sweep": _grid(sweep.design_cells(
        tiles=(4, 8, 16), caches=(2 * 1024, 8 * 1024, 32 * 1024))),
    "geometry": _grid(ablation.geometry_cells((1, 4, 16))),
    "shared_vs_private": _grid(ablation.shared_vs_private_cells),
    "toggles": _grid(ablation.TOGGLE_CELLS),
    "scheduling": _grid(ablation.SCHEDULING_CELLS),
}


# --------------------------------------------------------------------- #
# Measures
# --------------------------------------------------------------------- #

def each(fn: Callable[[Any], float]) -> Callable[[Any], dict[str, float]]:
    """One value per workload of a per-workload result (a list of
    results with a ``.workload``, or a name -> result mapping)."""

    def measure(result: Any) -> dict[str, float]:
        items = (result.items() if isinstance(result, dict)
                 else ((r.workload, r) for r in result))
        return {name: fn(item) for name, item in items}

    return measure


def _geomean_of(fn: Callable[[Any], float]) -> Callable[[Any], float]:
    return lambda results: geomean([fn(r) for r in results])


def _headline(base: str) -> Callable[[Any], float]:
    return lambda results: speedup.headline_ratios(results)[base]


def _latency_ratio(base: str) -> Callable[[Any], float]:
    def ratio(trend: grid.GridRow) -> float:
        latencies = trend.walk_latencies()
        return latencies[base] / max(1e-9, latencies["metal"])
    return ratio


def _energy_ratio(base: str) -> Callable[[Any], float]:
    def ratio(result: grid.GridRow) -> float:
        norm = result.dram_normalized()
        return norm[base] / max(1e-9, norm["metal"])
    return ratio


def _over_metal_ix(base: str) -> Callable[[Any], float]:
    def ratio(result: grid.GridRow) -> float:
        return (result.runs[base].makespan
                / max(1, result.runs["metal_ix"].makespan))
    return ratio


def _makespan_ratio(num: str, den: str) -> Callable[[Cells], float]:
    return lambda cells: cells(num).makespan / cells(den).makespan


def _shallow_gain(results: list[grid.GridRow]) -> float:
    """Deep ``sets`` over shallow ``sets_s``: ratio of METAL speedups."""
    by_name = {r.workload: r.speedups()["metal"] for r in results}
    return by_name["sets"] / by_name["sets_s"]


def _occupied_levels(row: grid.GridRow) -> float:
    return max(level for occ in occupancy.by_level(row).values()
               for level in occ)


def _more_tiles_gain(rows: list[grid.GridRow]) -> dict[str, float]:
    """16-tile over 4-tile speedup at 8 kB, for JOIN and SpMM."""
    speedups = {row.workload: row.speedups() for row in rows}
    return {name: speedups[name][(16, 8 * 1024)] / speedups[name][(4, 8 * 1024)]
            for name in ("join", "spmm")}


def _prefetch_traffic(rows: list[grid.GridRow]) -> float:
    runs = rows[0].runs
    return (runs["address + prefetch"].dram.accesses
            / runs["address"].dram.accesses)


def _frontier_deepening(rows: list[grid.GridRow]) -> float:
    """Last window's mean short-circuit level minus the first's."""
    windows = adaptivity.windows(rows[0])
    return windows[-1]["mean_start_level"] - windows[0]["mean_start_level"]


def _cache_8k_over_4k(row: grid.GridRow) -> float:
    return (row.runs[(8 * 1024, "metal")].avg_walk_latency
            / row.runs[(4 * 1024, "metal")].avg_walk_latency)


def _tallest_over_shortest(rows: list[grid.GridRow]) -> float:
    cells = scaling.by_height(rows[0])
    return cells[max(cells)]["metal"] / cells[min(cells)]["metal"]


# --------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Claim:
    """One claim of the paper's evaluation, as this repo checks it."""

    id: str
    figure: str
    statement: str
    experiment: str
    measure: Callable[[Any], float | dict[str, float]]
    rule: Rule
    scales: tuple[float | None, ...] = (FIGURE_SCALE,)
    seeds: tuple[int, ...] = (0,)
    #: The workloads the claim covers (() = every registered workload).
    workloads: tuple[str, ...] = ()
    #: The paper's value for what ``measure`` reads, when it gives one.
    paper: float | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"{self.id}: unknown experiment {self.experiment!r}")


OBS = dict(scales=(OBSERVATION_SCALE,), workloads=("scan", "join"))
SCAN = dict(workloads=("scan",))

CLAIMS: tuple[Claim, ...] = (
    # Fig. 7: the published synthesis table.
    Claim("fig7-metal-45nm", "Fig. 7",
          "METAL's comparator is synthesized at 45 nm", "tagmatch",
          lambda designs: designs[-1].process_nm, Rule("==", 45),
          scales=NO_SCALE, paper=45),
    Claim("fig7-metal-lowest-power", "Fig. 7",
          "METAL's comparator draws less power than every prior design",
          "tagmatch",
          lambda designs: min(d.power_mw for d in designs[:-1])
          / designs[-1].power_mw,
          Rule(">", 1.0), scales=NO_SCALE),
    Claim("fig7-ix-access-energy", "Fig. 7",
          "an IX-cache access costs 9000 fJ (range match included)",
          "tagmatch", lambda designs: IXCACHE_ENERGY_FJ, Rule(">", 0.0),
          scales=NO_SCALE, paper=9000.0),
    # Table 2: the workload suite.
    Claim("table2-ten-workloads", "Table 2",
          "the suite registers ten workloads", "table2",
          lambda workloads: len(workloads), Rule("==", 10)),
    Claim("table2-three-dsas", "Table 2",
          "the workloads run on exactly Gorgon, Capstan and Aurochs "
          "(count of DSAs outside that set or missing from it)", "table2",
          lambda workloads: len({w.dsa for w in workloads}
                                ^ {"gorgon", "capstan", "aurochs"}),
          Rule("==", 0)),
    Claim("table2-join-two-indexes", "Table 2",
          "JOIN walks two indexes", "table2",
          lambda workloads: len(workloads[0].indexes), Rule("==", 2),
          workloads=("join",)),
    # Fig. 15: miss rate.
    Claim("fig15-xcache-miss", "Fig. 15",
          "X-cache's leaf-only tagging misses most probes (Obs. 3)",
          "trends", each(lambda t: t.runs["xcache"].miss_rate),
          Rule(">", 0.3), workloads=TREND_WORKLOADS),
    Claim("fig15-scan-xcache-miss", "Fig. 15",
          "X-cache misses most probes on Scan (Obs. 3)", "cells",
          each(lambda c: c("xcache").miss_rate), Rule(">", 0.6), **SCAN),
    Claim("fig15-bigger-fa-no-worse", "Fig. 15",
          "the 16x fully-associative OPT cache misses no more than FA-OPT "
          "(miss-rate difference)", "trends",
          each(lambda t: t.runs["fa_big"].miss_rate - t.runs["fa_opt"].miss_rate),
          Rule("<=", 1e-9), workloads=TREND_WORKLOADS),
    Claim("fig15-scan-faopt-below-xcache", "Fig. 15",
          "FA-OPT misses less than X-cache on Scan, yet is not fastest "
          "(Obs. 2; miss-rate difference)", "cells",
          each(lambda c: c("xcache").miss_rate - c("fa_opt").miss_rate),
          Rule(">", 0.0), **SCAN),
    Claim("obs1-faopt-no-short-circuit", "Obs. 1",
          "an address cache, even with OPT replacement, never "
          "short-circuits a walk", "trends",
          each(lambda t: t.runs["fa_opt"].short_circuited), Rule("==", 0),
          **OBS),
    Claim("obs1-faopt-latency-floor", "Obs. 1",
          "OPT replacement does not rescue the address-cache organization: "
          "FA-OPT walk latency over METAL's", "trends",
          each(_latency_ratio("fa_opt")), Rule(">", 0.8), **OBS),
    Claim("obs2-metal-ix-miss-below-faopt", "Obs. 2",
          "METAL-IX misses less than FA-OPT yet is not faster: miss rates "
          "mislead (miss-rate difference)", "trends",
          each(lambda t: t.runs["fa_opt"].miss_rate - t.runs["metal_ix"].miss_rate),
          Rule(">", 0.0), **OBS),
    Claim("obs3-xcache-miss", "Obs. 3",
          "X-cache misses most probes, the leaf working set being large",
          "trends", each(lambda t: t.runs["xcache"].miss_rate),
          Rule("in", 0.5, 1.0), **OBS),
    Claim("obs3-xcache-miss-full-walk", "Obs. 3",
          "every X-cache miss re-walks root to leaf: nodes visited over "
          "misses x height, minus 1", "cells",
          each(lambda c: abs(c("xcache").nodes_visited
                             / (c("xcache").cache_stats.misses
                                * c.index_height()) - 1)),
          Rule("<=", 0.05), scales=(OBSERVATION_SCALE,), **SCAN),
    # Fig. 16: working set.
    Claim("fig16-metal-below-xcache", "Fig. 16",
          "METAL's working set is below X-cache's (Obs. 4; X-cache over "
          "METAL)", "trends",
          each(lambda t: t.runs["xcache"].working_set_fraction
               / t.runs["metal"].working_set_fraction),
          Rule(">", 1.0), workloads=TREND_WORKLOADS),
    Claim("obs4-metal-below-xcache", "Obs. 4",
          "METAL short-circuits more walks than X-cache, reducing the "
          "working set (X-cache over METAL)", "trends",
          each(lambda t: t.runs["xcache"].working_set_fraction
               / t.runs["metal"].working_set_fraction),
          Rule(">", 1.0), **OBS),
    Claim("obs4-short-circuit", "Obs. 4",
          "most METAL walks short-circuit", "trends",
          each(lambda t: t.runs["metal"].short_circuited
               / t.runs["metal"].num_walks),
          Rule(">", 0.6), **OBS),
    Claim("fig16-scan-short-circuit", "Fig. 16",
          "over half of METAL's Scan walks short-circuit", "cells",
          each(lambda c: c("metal").short_circuited / c("metal").num_walks),
          Rule(">", 0.5), **SCAN),
    Claim("fig16-stream-all-dram", "Fig. 16",
          "streaming serves all index walk traffic from DRAM", "trends",
          each(lambda t: t.runs["stream"].working_set_fraction),
          Rule(">", 0.99), workloads=TREND_WORKLOADS),
    Claim("fig16-scan-stream-exactly-one", "Fig. 16",
          "streaming's Scan working set is 1.0 (distance from 1)", "cells",
          each(lambda c: abs(c("stream").working_set_fraction - 1.0)),
          Rule("<=", 1e-6), **SCAN),
    Claim("fig16-scan-address-below-stream", "Fig. 16",
          "the address cache's Scan working set is below streaming's "
          "(difference)", "cells",
          each(lambda c: c("stream").working_set_fraction
               - c("address").working_set_fraction),
          Rule(">", 0.0), **SCAN),
    # Fig. 17: walk latency.
    Claim("fig17-latency-vs-xcache", "Fig. 17",
          "METAL walks are faster than X-cache's (geomean latency ratio)",
          "trends", _geomean_of(_latency_ratio("xcache")), Rule(">", 1.2),
          workloads=TREND_WORKLOADS, paper=1.5),
    Claim("fig17-latency-vs-faopt", "Fig. 17",
          "METAL walks are faster than FA-OPT's (geomean latency ratio)",
          "trends", _geomean_of(_latency_ratio("fa_opt")), Rule(">", 1.0),
          workloads=TREND_WORKLOADS, paper=1.8),
    Claim("obs5-latency-vs-xcache", "Obs. 5",
          "METAL reduces walk latency vs X-cache on every reach workload",
          "trends", each(_latency_ratio("xcache")), Rule(">", 1.3), **OBS),
    # Fig. 18: speedup.
    Claim("fig18-vs-stream", "Fig. 18",
          "METAL beats the streaming DSA (geomean speedup)", "speedups",
          _headline("stream"), Rule(">", 2.0), workloads=ALL_WORKLOADS,
          paper=7.8),
    Claim("fig18-vs-address", "Fig. 18",
          "METAL beats the address cache (geomean speedup)", "speedups",
          _headline("address"), Rule(">", 1.0), workloads=ALL_WORKLOADS,
          paper=4.1),
    Claim("fig18-vs-xcache", "Fig. 18",
          "METAL beats X-cache (geomean speedup)", "speedups",
          _headline("xcache"), Rule(">", 1.5), workloads=ALL_WORKLOADS,
          paper=2.4),
    Claim("fig18-stream-gap-above-xcache-gap", "Table 3",
          "METAL's geomean advantage over streaming exceeds its advantage "
          "over X-cache", "speedups",
          lambda results: (speedup.headline_ratios(results)["stream"]
                           / speedup.headline_ratios(results)["xcache"]),
          Rule(">", 1.0), workloads=ALL_WORKLOADS),
    Claim("fig18-vs-stream-small", "Fig. 18",
          "METAL beats streaming even at scale 0.05 (geomean speedup)",
          "speedups", _headline("stream"), Rule(">", 1.0),
          scales=(0.05,), workloads=ALL_WORKLOADS),
    Claim("fig18-spmm-vs-xcache", "Fig. 18",
          "SpMM's METAL speedup over X-cache's", "speedups",
          lambda results: (results[0].speedups()["metal"]
                           / results[0].speedups()["xcache"]),
          Rule(">", 1.5), workloads=("spmm",)),
    Claim("fig18-spmm-vs-stream", "Fig. 18",
          "METAL speeds SpMM up over streaming", "cells",
          each(_makespan_ratio("stream", "metal")), Rule(">", 2.0),
          workloads=("spmm",)),
    Claim("fig18-deep-above-shallow", "Fig. 18",
          "the shallow Sets-S variant gains less than deep Sets (ratio of "
          "METAL speedups)", "speedups", _shallow_gain, Rule(">", 1.0),
          workloads=("sets", "sets_s")),
    Claim("fig18-scan-every-cache-beats-stream", "Fig. 18",
          "every cache organization speeds Scan up over streaming",
          "cells",
          lambda cells: {kind: cells["scan"]("stream").makespan
                         / cells["scan"](kind).makespan
                         for kind in ("address", "fa_opt", "metal_ix", "metal")},
          Rule(">", 1.0), **SCAN),
    Claim("fig18-scan-vs-address", "Fig. 18",
          "METAL beats the address cache on Scan", "cells",
          each(_makespan_ratio("address", "metal")), Rule(">", 1.0), **SCAN),
    Claim("fig18-scan-vs-xcache", "Fig. 18",
          "METAL beats X-cache on Scan", "cells",
          each(_makespan_ratio("xcache", "metal")), Rule(">", 1.0), **SCAN),
    Claim("fig18-scan-every-system-walks", "Fig. 18",
          "every memory system completes Scan's walks (fewest walks)",
          "speedups",
          lambda results: min(r.num_walks for r in results[0].runs.values()),
          Rule(">", 0), **SCAN),
    Claim("sec52-reach-vs-xcache", "Sec. 5.2",
          "reach workloads favour METAL over X-cache (makespan ratio)",
          "cells", each(_makespan_ratio("xcache", "metal")), Rule(">", 1.5),
          **OBS),
    Claim("sec52-deep-above-shallow", "Sec. 5.2",
          "deep Sets gains more over X-cache than shallow Sets-S (ratio of "
          "X-cache/METAL makespan ratios)", "cells",
          lambda cells: (_makespan_ratio("xcache", "metal")(cells["sets"])
                         / _makespan_ratio("xcache", "metal")(cells["sets_s"])),
          Rule(">", 1.0), scales=(OBSERVATION_SCALE,),
          workloads=("sets", "sets_s")),
    Claim("join-short-circuits", "Sec. 5.2",
          "METAL short-circuits walks on multi-index JOIN", "cells",
          each(lambda c: c("metal").short_circuited), Rule(">", 0),
          workloads=("join",)),
    # Fig. 19: DRAM energy.
    Claim("fig19-vs-stream", "Fig. 19",
          "METAL saves DRAM energy vs streaming (geomean)", "speedups",
          _geomean_of(lambda r: 1.0 / max(1e-9, r.dram_normalized()["metal"])),
          Rule(">", 1.5), workloads=ALL_WORKLOADS, paper=1.9),
    Claim("fig19-vs-xcache", "Fig. 19",
          "METAL saves DRAM energy vs X-cache (geomean)", "speedups",
          _geomean_of(_energy_ratio("xcache")), Rule(">", 1.2),
          workloads=ALL_WORKLOADS, paper=1.6),
    Claim("fig19-never-above-stream", "Fig. 19",
          "METAL never spends more DRAM energy than streaming "
          "(normalized)", "speedups",
          each(lambda r: r.dram_normalized()["metal"]), Rule("<=", 1.0),
          workloads=ALL_WORKLOADS),
    Claim("fig19-spmm-below-stream", "Fig. 19",
          "METAL spends less DRAM energy than streaming on SpMM "
          "(normalized)", "cells",
          each(lambda c: c("metal").dram_energy_fj / c("stream").dram_energy_fj),
          Rule("<", 1.0), workloads=("spmm",)),
    # Fig. 20: speedup breakdown, and Table 3's IX-cache-alone answer.
    Claim("fig20-ix-beats-stream", "Fig. 20",
          "the IX-cache alone speeds every workload up over streaming",
          "breakdown", each(lambda r: r.speedups()["metal_ix"]),
          Rule(">", 1.0),
          workloads=breakdown.DEFAULT_WORKLOADS),
    Claim("fig20-params-keep-ix", "Fig. 20",
          "patterns plus parameter tuning keep the IX-cache's speedup "
          "(full METAL over IX only)", "breakdown",
          each(lambda r: r.speedups()["metal"] / r.speedups()["metal_ix"]),
          Rule(">=", 0.92),
          workloads=breakdown.DEFAULT_WORKLOADS),
    Claim("fig20-join-metal-vs-metal-ix", "Fig. 20",
          "METAL at least matches METAL-IX on Level-pattern JOIN "
          "(makespan ratio)", "cells",
          each(_makespan_ratio("metal", "metal_ix")), Rule("<=", 1.05),
          workloads=("join",)),
    Claim("table3-ix-alone-vs-stream", "Table 3",
          "the IX-cache alone beats streaming (geomean METAL-IX speedup)",
          "speedups", _geomean_of(_over_metal_ix("stream")), Rule(">", 1.0),
          workloads=ALL_WORKLOADS, paper=5.3),
    Claim("table3-ix-alone-vs-xcache", "Table 3",
          "the IX-cache alone beats X-cache (geomean)", "speedups",
          _geomean_of(_over_metal_ix("xcache")), Rule(">", 1.0),
          workloads=ALL_WORKLOADS, paper=1.6),
    Claim("table3-pattern-gain", "Table 3",
          "patterns never cost much over METAL-IX (smallest METAL-IX/METAL "
          "makespan ratio; paper: 1.6-3.7x)", "speedups",
          lambda results: min(r.runs["metal_ix"].makespan
                              / max(1, r.runs["metal"].makespan)
                              for r in results),
          Rule(">", 0.8), workloads=ALL_WORKLOADS, paper=1.6),
    # Fig. 21: occupancy by level.
    Claim("fig21-spmm-s-three-levels", "Fig. 21",
          "SpMM-S fibers are three levels, so occupancy stays in levels "
          "0-2 (deepest occupied level)", "occupancy",
          each(_occupied_levels), Rule("<=", 2), workloads=("spmm_s",)),
    Claim("fig21-something-cached", "Fig. 21",
          "both METAL-IX and METAL cache entries on every workload "
          "(fewer entries of the two)", "occupancy",
          each(lambda r: min(sum(occ.values())
                             for occ in occupancy.by_level(r).values())),
          Rule(">", 0), workloads=occupancy.DEFAULT_WORKLOADS),
    # Fig. 22: adaptivity.
    Claim("fig22-windows", "Fig. 22",
          "the adaptivity replay covers at least five windows", "adaptivity",
          lambda rows: len(adaptivity.windows(rows[0])), Rule(">=", 5), **SCAN),
    Claim("fig22-frontier-deepens", "Fig. 22",
          "the cached frontier deepens as parameters tune (last window's "
          "mean short-circuit level minus the first's)", "adaptivity",
          _frontier_deepening,
          Rule(">", 0.0), **SCAN),
    # Fig. 23: index size.
    Claim("fig23a-bigger-cache-no-slower", "Fig. 23a",
          "a larger IX-cache never makes JOIN walks much slower (8 kB over "
          "4 kB METAL walk latency)", "records_sweep",
          each(_cache_8k_over_4k),
          Rule("<=", 1.15), scales=(0.1, 0.2), workloads=("join",)),
    Claim("fig23b-distinct-heights", "Fig. 23b",
          "the depth sweep builds at least two distinct tree heights",
          "depth_sweep", lambda rows: len(scaling.by_height(rows[0])),
          Rule(">=", 2),
          workloads=("join",)),
    Claim("fig23b-deeper-is-slower", "Fig. 23b",
          "deeper indexes mean longer METAL walks (tallest over shortest)",
          "depth_sweep",
          _tallest_over_shortest,
          Rule(">", 1.0), workloads=("join",)),
    Claim("fig23b-metal-vs-metal-ix", "Fig. 23b",
          "METAL stays near or below METAL-IX's walk latency at every depth",
          "depth_sweep",
          lambda rows: {str(height): cell["metal"] / cell["metal_ix"]
                        for height, cell in scaling.by_height(rows[0]).items()},
          Rule("<=", 1.1), workloads=("join",)),
    # Fig. 24: design sweep.
    Claim("fig24-two-regions", "Fig. 24",
          "the tile x cache sweep spans at least two limit regions",
          "design_sweep",
          lambda rows: len({sweep.region(run) for row in rows
                            for label, run in row.runs.items()
                            if label != "stream"}),
          Rule(">=", 2), workloads=("join", "spmm", "rtree")),
    Claim("fig24-more-tiles-no-slower", "Fig. 24",
          "more tiles at a fixed 8 kB cache never slow the DSA much "
          "(16-tile over 4-tile speedup)", "design_sweep",
          _more_tiles_gain,
          Rule(">=", 0.95), workloads=("join", "spmm", "rtree")),
    # Fig. 25: cache energy.
    Claim("fig25-fewer-accesses", "Fig. 25",
          "METAL probes its cache less often than the address cache "
          "(METAL over address accesses)", "speedups",
          each(lambda r: r.runs["metal"].cache_stats.accesses
               / r.runs["address"].cache_stats.accesses),
          Rule("<", 1.0), workloads=ALL_WORKLOADS),
    Claim("fig25-less-cache-energy", "Fig. 25",
          "METAL's cache energy is below the address cache's (ratio)",
          "speedups",
          each(lambda r: r.cache_energy_fj()["metal"]
               / r.cache_energy_fj()["address"]),
          Rule("<", 1.0), workloads=ALL_WORKLOADS),
    Claim("fig25-breakdown-sums-to-one", "Fig. 25",
          "the on-chip energy breakdown's fractions sum to 1 (distance "
          "from 1)", "speedups",
          each(lambda r: abs(sum(r.onchip_breakdown().values()) - 1.0)),
          Rule("<", 1e-9), workloads=ALL_WORKLOADS),
    # Cache-size requirement (Obs. 6) and cache-size monotonicity.
    Claim("obs6-4k-metal-vs-16k-address", "Obs. 6",
          "a 4 kB METAL stays within 1.4x of a 16 kB address cache's "
          "makespan", "cells",
          each(lambda c: c("metal", 4).makespan / c("address", 16).makespan),
          Rule("<", 1.4), scales=(OBSERVATION_SCALE,), **SCAN),
    Claim("obs6-4k-metal-vs-32k-address", "Obs. 6",
          "a 4 kB METAL stays within 1.6x of a 32 kB address cache's "
          "makespan", "cells",
          each(lambda c: c("metal", 4).makespan / c("address", 32).makespan),
          Rule("<", 1.6), **SCAN),
    Claim("cache-32k-vs-2k", "Sec. 5.6",
          "a 32 kB IX-cache is no slower than 2 kB beyond 10% (makespan "
          "ratio)", "cells",
          each(lambda c: c("metal", 32).makespan / c("metal", 2).makespan),
          Rule("<=", 1.1), **SCAN),
    Claim("cache-32k-vs-1k", "Sec. 5.6",
          "a 32 kB IX-cache is no slower than 1 kB beyond 5% at scale 0.05 "
          "(makespan ratio)", "cells",
          each(lambda c: c("metal", 32).makespan / c("metal", 1).makespan),
          Rule("<=", 1.05), scales=(0.05,), **SCAN),
    # Seed robustness: the reproduction's error bars.
    Claim("seeds-vs-stream", "Robustness",
          "METAL beats streaming on Scan by 1.5x under every generator seed",
          "cells",
          each(lambda c: c("stream").makespan / max(1, c("metal").makespan)),
          Rule(">", 1.5), seeds=(0, 1, 2), **SCAN),
    Claim("seeds-vs-stream-spread", "Robustness",
          "Scan's METAL-vs-stream advantage varies little across seeds",
          "cells",
          each(lambda c: c("stream").makespan / max(1, c("metal").makespan)),
          Rule("cv<", 0.3), seeds=(0, 1, 2), **SCAN),
    Claim("seeds-vs-stream-small", "Robustness",
          "METAL beats streaming on Scan on average over seeds at scale 0.05",
          "cells",
          each(lambda c: c("stream").makespan / max(1, c("metal").makespan)),
          Rule("mean>", 1.0), scales=(0.05,), seeds=(0, 1), **SCAN),
    Claim("seeds-vs-stream-small-spread", "Robustness",
          "Scan's METAL-vs-stream advantage varies boundedly across seeds "
          "at scale 0.05", "cells",
          each(lambda c: c("stream").makespan / max(1, c("metal").makespan)),
          Rule("cv<", 0.5), scales=(0.05,), seeds=(0, 1, 2), **SCAN),
    # Scale sensitivity: the Scan orderings hold as the workload grows.
    Claim("scale-metal-vs-xcache", "Scale",
          "METAL beats X-cache on Scan by 1.3x at every scale", "cells",
          each(lambda c: c("xcache").makespan / max(1, c("metal").makespan)),
          Rule(">", 1.3), scales=(0.1, 0.25, 0.5), **SCAN),
    Claim("scale-xcache-vs-stream", "Scale",
          "X-cache is no slower than streaming on Scan at every scale",
          "cells",
          each(lambda c: c("stream").makespan / max(1, c("xcache").makespan)),
          Rule(">=", 1.0), scales=(0.1, 0.25, 0.5), **SCAN),
    Claim("scale-index-grows", "Scale",
          "the Scan index grows with scale (index blocks)", "cells",
          each(lambda c: c("stream").total_index_blocks), Rule("grows"),
          scales=(0.1, 0.25, 0.5), **SCAN),
    # Ablations (DESIGN.md's supplemental axes).
    Claim("ablation-16-way-vs-direct", "Ablation",
          "a 16-way IX-cache is no slower than direct-mapped beyond 2% "
          "(makespan ratio)", "geometry",
          lambda rows: rows[0].runs[16].makespan / rows[0].runs[1].makespan,
          Rule("<=", 1.02), **SCAN),
    Claim("ablation-shared-vs-private", "Ablation",
          "one shared IX-cache hits at least as often as four private "
          "slices (hit-rate difference)", "shared_vs_private",
          lambda rows: (rows[0].runs["shared"].cache_stats.hit_rate
                        - ablation.private_hit_rate(rows[0])),
          Rule(">=", 0.0), **SCAN),
    Claim("ablation-prefetch-adds-traffic", "Ablation",
          "next-line prefetch only adds DRAM traffic on pointer chases "
          "(prefetching over plain address cache)", "toggles",
          _prefetch_traffic,
          Rule(">", 1.0), **SCAN),
    Claim("ablation-key-sorted-issue", "Ablation",
          "key-sorted walk issue never adds index DRAM traffic over FIFO "
          "(ratio)", "scheduling",
          lambda rows: (rows[0].runs["key_sorted"].index_dram_accesses
                        / rows[0].runs["fifo"].index_dram_accesses),
          Rule("<=", 1.0), **SCAN),
)

CLAIMS_BY_ID: dict[str, Claim] = {claim.id: claim for claim in CLAIMS}
if len(CLAIMS_BY_ID) != len(CLAIMS):
    raise ValueError("claim ids must be unique")


# --------------------------------------------------------------------- #
# Evaluation
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Verdict:
    """A row's measured values over its grid, and whether it holds."""

    claim: Claim
    #: (point label, value) per scale, seed and workload, in grid order.
    points: tuple[tuple[str, float], ...]

    @property
    def values(self) -> list[float]:
        return [value for _, value in self.points]

    @property
    def value(self) -> float:
        return self.claim.rule.summary(self.values)

    @property
    def holds(self) -> bool:
        return self.claim.rule.holds(self.values)

    def __str__(self) -> str:
        status = "holds" if self.holds else "FAILS"
        points = ", ".join(f"{label}={value:.4g}" for label, value in self.points)
        return (f"{self.claim.id} {status}: {self.claim.rule} "
                f"(measured {self.value:.4g}; {points})")


def _points(scale: float | None, seed: int,
            measured: float | dict[str, float]) -> list[tuple[str, float]]:
    where = "" if scale is None else f"{scale:g}/s{seed}"
    if isinstance(measured, dict):
        return [(f"{where}/{name}".lstrip("/"), float(value))
                for name, value in measured.items()]
    return [(where or "-", float(measured))]


class _Runner:
    """Runs each (experiment, workloads, scale, seed) at most once."""

    def __init__(self, executor: Executor | None) -> None:
        self.executor = executor or default_executor()
        self.results: dict[tuple, Any] = {}

    def measure(self, claim: Claim, scale: float | None,
                seed: int) -> list[tuple[str, float]]:
        key = (claim.experiment, claim.workloads, scale, seed)
        if key not in self.results:
            self.results[key] = EXPERIMENTS[claim.experiment](
                claim.workloads, scale, seed, self.executor)
        return _points(scale, seed, claim.measure(self.results[key]))


def evaluate(claims: Sequence[Claim] = CLAIMS,
             executor: Executor | None = None) -> dict[str, Verdict]:
    """Measure every row over its (scale, seed) grid."""
    runner = _Runner(executor)
    return {
        claim.id: Verdict(claim, tuple(
            point
            for scale in claim.scales
            for seed in claim.seeds
            for point in runner.measure(claim, scale, seed)))
        for claim in claims
    }


def format_paper_values(scale: float, executor: Executor | None = None) -> str:
    """Table 3: every row with a paper value, measured at ``scale``.

    Magnitudes are reported, not gated: the reduced-scale workloads
    compress most of them (EXPERIMENTS.md).
    """
    runner = _Runner(executor)
    rows = []
    for claim in CLAIMS:
        if claim.paper is None:
            continue
        at = None if claim.scales == NO_SCALE else scale
        value = claim.rule.summary([v for _, v in runner.measure(claim, at, 0)])
        rows.append([claim.id, claim.figure, claim.paper, value,
                     value / claim.paper])
    return render_table(
        ["claim", "figure", "paper", "measured", "measured/paper"], rows,
        f"Table 3 — Paper values vs this run (scale {scale:g}; rows in "
        "repro.bench.claims)",
    )
