"""Resilience curves: performance vs injected fault rate (repro.faults).

Sweeps a uniform :class:`FaultPlan` rate over one (workload, system) cell
and reports how throughput and tail latency degrade as the whole fault
taxonomy — DRAM spikes and bank stalls, NoC bursts, transient walker
failures, tag corruption and invalidation storms — ramps up together.
The acceptance bar is *graceful degradation*: makespan grows monotonically
(within a small tolerance) with the fault rate and stays within a bounded
factor of the fault-free run at a 10% rate, while the resilience ledger
proves no request was lost (``walks_completed + walks_degraded ==
walks_total`` at every point).

Faulted cells are ordinary :class:`RunSpec` runs, so they flow through the
exec layer's dedup, process pool, and content-addressed cache unchanged.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.bench.format import render_table
from repro.bench.runner import reject_unknown_systems
from repro.cmdline import (
    add_jobs,
    add_workload,
    float_list,
    positive_float,
    report_problems,
)
from repro.exec import Executor, RunSpec, default_executor
from repro.faults import FaultPlan
from repro.sim.metrics import RunResult

#: The swept per-opportunity fault rates (0.0 anchors the no-fault point).
DEFAULT_RATES = (0.0, 0.01, 0.02, 0.05, 0.1)

#: Tolerated non-monotonicity between adjacent points: retried injections
#: re-shuffle bank/row state, so schedules are not strictly nested across
#: rates and tiny makespan dips are physical, not regressions.
MONOTONE_TOLERANCE = 0.02

#: "Degrades, not collapses": makespan at the highest swept rate must stay
#: within this factor of the fault-free makespan.
COLLAPSE_FACTOR = 10.0


@dataclass
class ChaosPoint:
    """One swept fault rate: timing plus the resilience ledger."""

    rate: float
    makespan: int
    avg_walk_latency: float
    p99: int | None
    num_walks: int
    faults: dict[str, int] | None

    @classmethod
    def from_run(cls, rate: float, run: RunResult) -> "ChaosPoint":
        pct = run.latency_percentiles() or {}
        return cls(
            rate=rate,
            makespan=run.makespan,
            avg_walk_latency=run.avg_walk_latency,
            p99=pct.get("p99"),
            num_walks=run.num_walks,
            faults=run.faults,
        )

    @property
    def degraded_fraction(self) -> float:
        if not self.faults or not self.faults.get("walks_total"):
            return 0.0
        return self.faults["walks_degraded"] / self.faults["walks_total"]


@dataclass
class ChaosCurve:
    """A full rate sweep for one (workload, system) cell."""

    workload: str
    system: str
    scale: float
    seed: int
    plan_seed: int
    points: list[ChaosPoint] = field(default_factory=list)

    def slowdown(self, point: ChaosPoint) -> float:
        base = self.points[0].makespan if self.points else 0
        return point.makespan / base if base else 0.0


def chaos_spec(
    workload: str,
    system: str,
    rate: float,
    scale: float,
    seed: int = 0,
    plan_seed: int = 0,
) -> RunSpec:
    """The RunSpec for one swept point (fault-free when ``rate`` is 0)."""
    plan = FaultPlan.uniform(rate, seed=plan_seed)
    return RunSpec.make(
        workload, system, scale=scale, seed=seed, record_latencies=True,
        faults=() if plan.is_empty else plan,
    )


def run_chaos(
    workload: str = "scan",
    system: str = "metal",
    rates: tuple[float, ...] = DEFAULT_RATES,
    scale: float = 0.1,
    seed: int = 0,
    plan_seed: int = 0,
    executor: Executor | None = None,
) -> ChaosCurve:
    """Sweep the fault rate and collect one resilience curve."""
    executor = executor or default_executor()
    specs = [
        chaos_spec(workload, system, rate, scale, seed, plan_seed)
        for rate in rates
    ]
    runs = executor.run_results(specs)
    curve = ChaosCurve(workload, system, scale, seed, plan_seed)
    curve.points = [
        ChaosPoint.from_run(rate, run) for rate, run in zip(rates, runs)
    ]
    return curve


def check_graceful(
    curve: ChaosCurve,
    monotone_tolerance: float = MONOTONE_TOLERANCE,
    collapse_factor: float = COLLAPSE_FACTOR,
) -> list[str]:
    """Graceful-degradation and no-lost-request checks.

    Returns human-readable problems; empty means the curve degrades
    monotonically (within tolerance), never collapses, and accounts for
    every walk at every fault rate.
    """
    problems: list[str] = []
    if not curve.points:
        return ["empty curve"]
    for point in curve.points:
        if point.rate == 0.0:
            if point.faults is not None:
                problems.append(
                    "rate-0 point carries a fault ledger (should be the "
                    "byte-identical no-fault run)"
                )
            continue
        ledger = point.faults
        if ledger is None:
            problems.append(f"rate {point.rate:g}: no fault ledger")
            continue
        completed = ledger["walks_completed"] + ledger["walks_degraded"]
        if completed != ledger["walks_total"] or completed != point.num_walks:
            problems.append(
                f"rate {point.rate:g}: lost requests — completed "
                f"{ledger['walks_completed']} + degraded "
                f"{ledger['walks_degraded']} != issued {point.num_walks}"
            )
    previous = curve.points[0]
    for point in curve.points[1:]:
        if point.makespan < previous.makespan * (1.0 - monotone_tolerance):
            problems.append(
                f"non-monotone degradation: rate {point.rate:g} makespan "
                f"{point.makespan} < rate {previous.rate:g} makespan "
                f"{previous.makespan} (beyond {monotone_tolerance:.0%} "
                f"tolerance)"
            )
        previous = point
    base = curve.points[0].makespan
    worst = curve.points[-1].makespan
    if base and worst > base * collapse_factor:
        problems.append(
            f"collapse: makespan at rate {curve.points[-1].rate:g} is "
            f"{worst / base:.1f}x the fault-free run "
            f"(limit {collapse_factor:g}x)"
        )
    return problems


def format_chaos(curve: ChaosCurve) -> str:
    """Resilience-curve table, ready to print."""
    rows = []
    for point in curve.points:
        ledger = point.faults or {}
        rows.append([
            point.rate,
            point.makespan,
            f"{curve.slowdown(point):.2f}x",
            round(point.avg_walk_latency, 1),
            point.p99 if point.p99 is not None else "-",
            ledger.get("faults_injected", 0),
            ledger.get("retries", 0),
            ledger.get("tag_refetches", 0),
            ledger.get("storm_evictions", 0),
            f"{point.degraded_fraction * 100:.2f}%",
        ])
    verdict = "graceful" if not check_graceful(curve) else "NOT GRACEFUL"
    return render_table(
        ["fault rate", "makespan", "slowdown", "walk lat", "p99",
         "injected", "retries", "refetches", "storm evicts", "degraded"],
        rows,
        f"Resilience curve ({curve.workload}/{curve.system}@"
        f"{curve.scale:g}, plan seed {curve.plan_seed}) — {verdict}",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_workload(parser)
    parser.add_argument("--system", default="metal",
                        help="memory system to stress (default: metal)")
    parser.add_argument("--scale", type=positive_float, default=0.1)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload generator seed")
    parser.add_argument("--plan-seed", type=int, default=0,
                        help="fault-schedule seed (same seed => same faults)")
    parser.add_argument("--rates", type=float_list(0.0, 1.0, closed=True),
                        default=DEFAULT_RATES,
                        help="comma-separated per-opportunity fault rates")
    add_jobs(parser)


def run(args: argparse.Namespace) -> int:
    """Print one resilience curve; exit 1 unless it degrades gracefully."""
    if reject_unknown_systems((args.system,)):
        return 2
    with Executor(jobs=args.jobs) as executor:
        curve = run_chaos(
            workload=args.workload, system=args.system, rates=args.rates,
            scale=args.scale, seed=args.seed, plan_seed=args.plan_seed,
            executor=executor,
        )
    print(format_chaos(curve))
    if report_problems("RESILIENCE CHECK FAILED", check_graceful(curve)):
        return 1
    print("\nresilience check: degradation is monotone and bounded; every "
          "injected fault was retried to success or accounted as degraded")
    return 0
