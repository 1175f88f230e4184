"""Paper-scale sweep: do the headline trends survive up to 1x scale?

The reproduction's default runs sit ~100x below the paper's sizes.
The ``scale-*`` rows of :mod:`repro.bench.claims` check the system
orderings over the small-scale regime (repro scales 0.1-0.5); this sweep
pushes the other direction — up to the paper's 10M-key scan index — using the
streaming keygen (:mod:`repro.workloads.stream`) and the array-backed
record table (:mod:`repro.indexes.soa`), the two layers that exist
precisely so a 1x point fits in RAM.

Points are expressed as *fractions of paper scale*: ``frac=1.0`` means
repro scale ``PAPER_SCALE`` (10M scan records), ``frac=0.01`` means 100K
records. Every point builds the workload under ``tracemalloc`` and gates
the build peak against a committed per-point byte budget, then simulates
a fixed number of walks (``max_walks`` truncates the key stream to an
exact prefix) on the stream baseline and on METAL, so makespan ratios
across points reflect index growth, not walk volume.

``BENCH_scale.json`` commits the sweep: miss rates, speedups, block
counts, budgets, and measured build peaks per point. ``--baseline``
re-runs a subset, verifies the trends (speedup floor, miss-rate
ordering, memory budget) still hold, and gates the re-run points against
the committed ones through :mod:`repro.gate`: sizes and budgets exactly,
makespans and miss rates within tolerance. Because each budget is pinned
to the committed one, no build peak can pass a budget the committed
sweep did not record. CI runs the 0.01/0.05 points on every push.
"""

from __future__ import annotations

import argparse
import resource
import tracemalloc
from dataclasses import dataclass, field
from typing import Any

from repro import gate
from repro.bench.format import render_table
from repro.bench.runner import build_memsys
from repro.cmdline import float_list, report_problems
from repro.sim.metrics import RunResult, simulate
from repro.workloads.suite import PAPER_SCALE, build_workload, sized

#: Paper-scale fractions the committed baseline covers. 1.0 is the
#: paper's 10M-key scan index.
DEFAULT_POINTS = (0.01, 0.05, 0.25, 1.0)
#: Fractions cheap enough for per-push CI.
CI_POINTS = (0.01, 0.05)
#: Systems compared at every point; "stream" is the speedup denominator.
SYSTEMS = ("stream", "metal")
#: Walk-count cap: every point simulates the same stream prefix, so the
#: sweep varies index size only.
MAX_WALKS = 20_000

#: tracemalloc build-peak budget per point: a flat floor for interpreter
#: noise plus a per-record SoA allowance (key/column arrays, level
#: arrays, and the transient temporaries of vectorized construction).
BUDGET_FLOOR_BYTES = 96 * 1024 * 1024
BUDGET_PER_RECORD = 260

DEFAULT_BASELINE = "BENCH_scale.json"
#: Minimum METAL-over-stream speedup required at every point.
MIN_SPEEDUP = 1.5


def point_budget_bytes(num_records: int) -> int:
    """Build-peak budget for a point with ``num_records`` indexed keys."""
    return BUDGET_FLOOR_BYTES + num_records * BUDGET_PER_RECORD


@dataclass
class SweepPoint:
    """One paper-scale fraction: sizes, build memory, and run metrics."""

    frac: float
    scale: float
    num_records: int
    num_walks: int
    index_blocks: int
    build_peak_bytes: int
    budget_bytes: int
    rss_peak_bytes: int
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    speedup: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepPoint":
        return cls(**data)


def run_point(
    frac: float,
    workload_name: str = "scan",
    seed: int = 0,
    max_walks: int = MAX_WALKS,
) -> SweepPoint:
    """Build + simulate one paper-scale fraction.

    The build runs under tracemalloc (the sweep's memory gate measures
    construction, which dominates the footprint — the simulation adds
    bounded per-walk state). RSS peak is reported informationally: it is
    process-lifetime-monotone, so only the largest point's value means
    anything in a multi-point run.
    """
    scale = frac * PAPER_SCALE
    tracemalloc.start()
    try:
        workload = build_workload(
            workload_name, scale=scale, seed=seed, max_walks=max_walks,
        )
        _, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    num_records = sized(workload_name, "records", scale)
    point = SweepPoint(
        frac=frac,
        scale=scale,
        num_records=num_records,
        num_walks=len(workload.requests),
        index_blocks=workload.total_index_blocks,
        build_peak_bytes=build_peak,
        budget_bytes=point_budget_bytes(num_records),
        rss_peak_bytes=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    )
    runs: dict[str, RunResult] = {}
    for kind in SYSTEMS:
        sim = workload.config.sim_params()
        memsys = build_memsys(kind, workload, workload.default_cache_bytes, sim)
        runs[kind] = simulate(
            memsys, workload.requests, sim, workload.total_index_blocks,
            walks=workload.walks,
        )
    point.metrics = {
        kind: {
            "makespan": run.makespan,
            "miss_rate": run.miss_rate,
            "avg_walk_latency": run.avg_walk_latency,
            "working_set_fraction": run.working_set_fraction,
        }
        for kind, run in runs.items()
    }
    point.speedup = runs["stream"].makespan / max(1, runs["metal"].makespan)
    return point


def run_scale_sweep(
    points: tuple[float, ...] = DEFAULT_POINTS,
    workload_name: str = "scan",
    seed: int = 0,
    max_walks: int = MAX_WALKS,
) -> list[SweepPoint]:
    """Run the sweep smallest-first (RSS peaks stay attributable)."""
    return [
        run_point(frac, workload_name, seed, max_walks)
        for frac in sorted(points)
    ]


def check_trends(points: list[SweepPoint]) -> list[str]:
    """The paper's trends, as hard predicates over a finished sweep."""
    problems = []
    for p in points:
        if p.build_peak_bytes > p.budget_bytes:
            problems.append(
                f"frac {p.frac:g}: build peak {p.build_peak_bytes:,}B "
                f"exceeds budget {p.budget_bytes:,}B"
            )
        if p.speedup < MIN_SPEEDUP:
            problems.append(
                f"frac {p.frac:g}: METAL speedup {p.speedup:.2f}x below "
                f"floor {MIN_SPEEDUP}x"
            )
        if p.metrics["metal"]["miss_rate"] >= p.metrics["stream"]["miss_rate"]:
            problems.append(
                f"frac {p.frac:g}: METAL miss rate "
                f"{p.metrics['metal']['miss_rate']:.3f} not below stream's "
                f"{p.metrics['stream']['miss_rate']:.3f}"
            )
    for prev, cur in zip(points, points[1:]):
        if cur.index_blocks <= prev.index_blocks:
            problems.append(
                f"index blocks not growing: frac {prev.frac:g} -> "
                f"{cur.frac:g} gives {prev.index_blocks} -> {cur.index_blocks}"
            )
    return problems


def sweep_to_baseline(points: list[SweepPoint]) -> dict[str, Any]:
    return {
        "version": 1,
        "workload": "scan",
        "backend": "soa",
        "max_walks": MAX_WALKS,
        "min_speedup": MIN_SPEEDUP,
        "points": [p.to_dict() for p in points],
    }


def _flatten(doc: dict[str, Any]) -> dict[str, Any]:
    flat = {key: doc.get(key) for key in ("workload", "backend", "max_walks")}
    for p in doc.get("points", ()):
        prefix = f"frac{p['frac']:g}"
        for name in ("num_records", "num_walks", "index_blocks",
                     "budget_bytes"):
            flat[f"{prefix}.{name}"] = p[name]
        for kind, metrics in p["metrics"].items():
            for name in ("makespan", "miss_rate"):
                flat[f"{prefix}.{kind}.{name}"] = metrics[name]
    return flat


GATE = gate.Rules(
    flatten=_flatten,
    config=("workload", "backend", "max_walks"),
    exact=("num_records", "num_walks", "index_blocks", "budget_bytes"),
)


def covered_by(points: list[SweepPoint]):
    """A ``--points`` run answers only for the fractions it ran."""
    prefixes = tuple(f"frac{p.frac:g}." for p in points)
    return lambda key: key.startswith(prefixes)


def format_sweep(points: list[SweepPoint]) -> str:
    rows = [
        [
            f"{p.frac:g}", f"{p.num_records:,}", f"{p.num_walks:,}",
            f"{p.index_blocks:,}",
            f"{p.build_peak_bytes / 2**20:.1f}",
            f"{p.budget_bytes / 2**20:.0f}",
            f"{p.metrics['stream']['miss_rate']:.3f}",
            f"{p.metrics['metal']['miss_rate']:.3f}",
            f"{p.speedup:.2f}x",
        ]
        for p in points
    ]
    return render_table(
        ["paper frac", "records", "walks", "index blocks", "build MB",
         "budget MB", "stream miss", "metal miss", "METAL speedup"],
        rows, "Paper-scale sweep (scan, SoA backend, fixed walk prefix)",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--points", type=float_list(0.0, 1.0),
                        default=DEFAULT_POINTS,
                        help="comma-separated paper-scale fractions "
                             "(default: the committed sweep's points)")
    gate.add_arguments(parser, DEFAULT_BASELINE)


def run(args: argparse.Namespace) -> int:
    gate.validate(args)
    points = run_scale_sweep(points=args.points)
    print(format_sweep(points))
    if report_problems("SCALE TRENDS VIOLATED", check_trends(points)):
        return gate.EXIT_TRENDS
    print("\ntrend check: METAL speedup and miss-rate advantage hold at "
          "every point; builds stayed within their memory budgets")
    return gate.finish(args, sweep_to_baseline(points), GATE,
                       covered=covered_by(points))
