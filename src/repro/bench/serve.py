"""Saturation curves: SLO latency vs offered load for the serving layer.

Sweeps the :class:`~repro.serve.spec.ServeSpec` ``load`` multiplier over
one client -> balancer -> N-tile topology and reports the open-loop
serving metrics — offered/completed requests, throughput, p50/p90/p99
end-to-end latency, mean tile utilization — plus the **saturation knee**:
the first swept load whose p99 exceeds :data:`KNEE_FACTOR` times the p99
at the lightest load. Below the knee the service is latency-flat; past
it, queueing dominates and the tail blows up (the M/D/1 oracle tests pin
this behaviour against closed form).

By default the sweep is *calibrated*: ``load=1.0`` is sized to the
fleet's measured capacity (``tiles / mean service time``), so the knee
lands in the same place regardless of workload, scale, or tile count.

Serve cells are ordinary spec submissions, so they flow through the exec
layer's dedup, process pool, and content-addressed cache unchanged. The
curve also serializes to a committed baseline (``BENCH_serve.json``)
that ``repro serve --baseline`` gates on through :mod:`repro.gate`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from typing import Any

from repro import gate
from repro.bench.format import render_table
from repro.exec import Executor, default_executor
from repro.serve.spec import ServeSpec

#: The swept offered-load multipliers (1.0 = calibrated fleet capacity).
DEFAULT_LOADS: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.3)

#: A load is past the knee when its p99 exceeds this factor times the
#: p99 at the lightest swept load.
KNEE_FACTOR = 3.0


@dataclass
class ServePoint:
    """One swept load: SLO metrics distilled from a ServeResult payload."""

    load: float
    users: int
    offered: int
    completed: int
    throughput_rps: float
    mean_ns: float
    p50: int
    p90: int
    p99: int
    tile_wait_p99: int
    utilization: float

    @classmethod
    def from_payload(cls, load: float, data: dict[str, Any]) -> "ServePoint":
        lat = data["latency_ns"]
        return cls(
            load=load,
            users=data["users"],
            offered=data["offered"],
            completed=data["completed"],
            throughput_rps=data["throughput_rps"],
            mean_ns=lat["mean"],
            p50=lat["p50"],
            p90=lat["p90"],
            p99=lat["p99"],
            tile_wait_p99=data["tile_wait_ns"]["p99"],
            utilization=data["utilization"],
        )


@dataclass
class ServeCurve:
    """A full load sweep for one serving topology."""

    workload: str
    system: str
    scale: float
    seed: int
    users: int
    tiles: int
    balancer: str
    requests_per_min: float
    duration_ms: int
    points: list[ServePoint] = field(default_factory=list)
    #: Raw ServeResult payload dicts per point (``keep_results=True``) —
    #: the SLO evaluator and span analyses read these; the committed
    #: baseline never includes them.
    results: list[dict[str, Any]] | None = None

    def knee(self, factor: float = KNEE_FACTOR) -> float | None:
        """First swept load past the knee, or None if the sweep never
        saturates."""
        if not self.points:
            return None
        base = max(1, self.points[0].p99)
        for point in self.points[1:]:
            if point.p99 > factor * base:
                return point.load
        return None


def serve_spec(
    workload: str,
    system: str,
    load: float,
    scale: float,
    seed: int = 0,
    users: int = 32,
    tiles: int = 4,
    balancer: str = "round_robin",
    requests_per_min: float = 60.0,
    duration_ms: int = 5,
    tile_speedups: tuple[float, ...] = (),
    trace: bool = False,
) -> ServeSpec:
    """The ServeSpec for one swept point."""
    return ServeSpec.make(
        workload, system=system, scale=scale, seed=seed, users=users,
        requests_per_min=requests_per_min, load=load, duration_ms=duration_ms,
        tiles=tiles, balancer=balancer, tile_speedups=tile_speedups,
        trace=trace,
    )


def calibrated_rpm(
    workload: str,
    system: str,
    scale: float,
    seed: int,
    users: int,
    tiles: int,
) -> float:
    """Per-user requests/min at which ``load=1.0`` saturates the fleet.

    ``tiles / mean_service`` is the aggregate service capacity; divided
    across the mean population it gives the per-user rate. Rounded to 6
    significant digits so the value embeds stably in spec digests.
    """
    from repro.sim.tile_backend import build_service_model

    model = build_service_model(workload, system, scale, seed, tiles)
    rpm = tiles * 60e9 / (model.mean_ns * users)
    return float(f"{rpm:.6g}")


def run_serve_sweep(
    workload: str = "scan",
    system: str = "metal",
    loads: tuple[float, ...] = DEFAULT_LOADS,
    scale: float = 0.05,
    seed: int = 0,
    users: int = 32,
    tiles: int = 4,
    balancer: str = "round_robin",
    duration_ms: int = 5,
    requests_per_min: float | None = None,
    tile_speedups: tuple[float, ...] = (),
    executor: Executor | None = None,
    trace: bool = False,
    keep_results: bool = False,
) -> ServeCurve:
    """Sweep offered load and collect one saturation curve.

    ``requests_per_min=None`` calibrates the rate to the fleet capacity
    (see :func:`calibrated_rpm`). ``trace=True`` records request span
    trees at every point; ``keep_results=True`` (implied by ``trace``)
    keeps the raw payload dicts on ``curve.results`` for the SLO and
    span analyses.
    """
    executor = executor or default_executor()
    if requests_per_min is None:
        requests_per_min = calibrated_rpm(
            workload, system, scale, seed, users, tiles)
    specs = [
        serve_spec(workload, system, load, scale, seed=seed, users=users,
                   tiles=tiles, balancer=balancer,
                   requests_per_min=requests_per_min,
                   duration_ms=duration_ms, tile_speedups=tile_speedups,
                   trace=trace)
        for load in loads
    ]
    outcomes = executor.run(specs)
    curve = ServeCurve(
        workload=workload, system=system, scale=scale, seed=seed,
        users=users, tiles=tiles, balancer=balancer,
        requests_per_min=requests_per_min, duration_ms=duration_ms,
    )
    data = [outcome.check().data for outcome in outcomes]
    curve.points = [
        ServePoint.from_payload(load, payload)
        for load, payload in zip(loads, data)
    ]
    if keep_results or trace:
        curve.results = data
    return curve


def format_serve(curve: ServeCurve) -> str:
    """Saturation-curve table, ready to print."""
    knee = curve.knee()
    rows = []
    for point in curve.points:
        rows.append([
            point.load,
            point.offered,
            f"{point.throughput_rps / 1e6:.3f}M",
            round(point.mean_ns / 1e3, 1),
            round(point.p50 / 1e3, 1),
            round(point.p90 / 1e3, 1),
            round(point.p99 / 1e3, 1),
            round(point.tile_wait_p99 / 1e3, 1),
            f"{point.utilization * 100:.1f}%",
            "<-- knee" if knee is not None and point.load == knee else "",
        ])
    title = (
        f"Saturation curve ({curve.workload}/{curve.system}@{curve.scale:g}, "
        f"{curve.users} users x {curve.requests_per_min:.4g} req/min, "
        f"{curve.tiles} tiles, {curve.balancer}) — knee at "
        f"{'load ' + format(knee, 'g') if knee is not None else 'none found'}"
    )
    return render_table(
        ["load", "offered", "rps", "mean us", "p50 us", "p90 us",
         "p99 us", "tile wait p99 us", "util", ""],
        rows, title,
    )


# --------------------------------------------------------------------- #
# SLO attainment over a sweep (python -m repro serve --slo)
# --------------------------------------------------------------------- #

def slo_curve(curve: ServeCurve, objective) -> list:
    """Per-load :class:`~repro.serve.slo.SLOReport` from the sweep's
    latency histograms (needs ``keep_results=True``)."""
    from repro.obs.histogram import Histogram
    from repro.serve.slo import evaluate_histogram

    if curve.results is None:
        raise ValueError("slo_curve needs a sweep run with keep_results=True")
    return [
        evaluate_histogram(
            Histogram.from_state(data["latency_ns"]["state"]), objective)
        for data in curve.results
    ]


def format_slo(curve: ServeCurve, objective) -> str:
    """SLO attainment + error-budget burn table across the sweep."""
    reports = slo_curve(curve, objective)
    rows = []
    for point, report in zip(curve.points, reports):
        rows.append([
            point.load,
            report.total,
            report.bad,
            f"{report.attainment * 100:.3f}%",
            round(report.burn, 2),
            round(point.p99 / 1e3, 1),
            "" if report.met else "SLO MISS",
        ])
    return render_table(
        ["load", "requests", "violations", "attainment", "burn", "p99 us",
         ""],
        rows,
        f"SLO attainment ({objective.label()}) — burn 1.0 spends the error "
        f"budget exactly on schedule",
    )


# --------------------------------------------------------------------- #
# Span-overhead gate (CI serve-trace-overhead job)
# --------------------------------------------------------------------- #

#: Committed golden ServeResult payload (spans off, scale 0.01).
GOLDEN_PATH = "BENCH_serve_result.json"


def _golden_spec(golden: dict[str, Any]) -> ServeSpec:
    """Rebuild the golden's exact ServeSpec from its canonical form.

    Ignores canonical fields the current ServeSpec no longer has and
    lets new fields default, so goldens written before a spec gained a
    field (e.g. ``trace``) keep verifying.
    """
    from dataclasses import fields as dc_fields

    known = {f.name for f in dc_fields(ServeSpec)}
    kwargs = {k: v for k, v in golden["spec"].items()
              if k in known and k != "workload"}
    return ServeSpec.make(golden["spec"]["workload"], **kwargs)


def trace_overhead_check(
    golden_path: str = GOLDEN_PATH, scale: float | None = None,
) -> tuple[str, list[str]]:
    """Run the golden spec with spans off and on; report any drift.

    Three invariants, mirroring the sim engine's trace-overhead gate:

    1. the spans-off payload is byte-identical to the committed golden
       (observability changes may not move a single serving number),
    2. the traced payload minus its ``spans`` key is byte-identical to
       the spans-off payload (recording spans perturbs nothing), and
    3. the span log reconciles exactly — per-request hop sums equal
       end-to-end latencies and aggregate sums match the histograms.
    """
    from repro.obs.spans import reconcile_spans
    from repro.serve.engine import simulate_serve

    problems: list[str] = []
    lines: list[str] = []
    try:
        with open(golden_path) as f:
            golden = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return "", [f"golden {golden_path} unreadable: {exc}"]
    spec = _golden_spec(golden)
    if scale is not None and spec.scale != scale:
        problems.append(
            f"golden was written at scale {spec.scale:g}, not {scale:g}")
    off = simulate_serve(spec).to_dict()
    canon = lambda d: json.dumps(d, sort_keys=True)
    if canon(off) != canon(golden["result"]):
        problems.append(
            "spans-off ServeResult drifted from the committed golden "
            f"({golden_path}); if the serving engine changed on purpose, "
            "regenerate with python -m repro.bench.serve --write-golden")
    traced = simulate_serve(replace(spec, trace=True))
    on = traced.to_dict()
    spans = on.pop("spans", None)
    if spans is None:
        problems.append("traced run carried no span log")
    if canon(on) != canon(off):
        problems.append(
            "recording spans perturbed the ServeResult payload "
            "(traced-minus-spans != untraced)")
    if traced.spans is not None:
        problems.extend(reconcile_spans(traced.spans, traced))
    lines.append(
        f"{spec.label()}: {off['offered']} requests, spans "
        f"{'recorded' if spans else 'missing'} "
        f"({len(spans['requests']) if spans else 0} span trees)")
    if not problems:
        lines.append(
            "span overhead check: spans-off payload byte-identical to the "
            "committed golden; traced payload identical minus 'spans'; "
            "every span tree reconciles with its end-to-end latency")
    return "\n".join(lines), problems


def write_golden(golden_path: str = GOLDEN_PATH, scale: float = 0.01) -> None:
    """(Re)write the committed spans-off golden payload."""
    from repro.serve.engine import simulate_serve

    rpm = calibrated_rpm("scan", "metal", scale, 0, 32, 4)
    spec = ServeSpec.make(
        "scan", system="metal", scale=scale, seed=0, users=32,
        requests_per_min=rpm, load=1.0, duration_ms=3, tiles=4,
        balancer="round_robin",
    )
    gate.write(golden_path, {"spec": spec.canonical_dict(),
                             "result": simulate_serve(spec).to_dict()})


# --------------------------------------------------------------------- #
# Committed baseline (CI serve-smoke gate)
# --------------------------------------------------------------------- #

def curve_to_baseline(curve: ServeCurve) -> dict[str, Any]:
    """The JSON shape committed as ``BENCH_serve.json``."""
    return {
        "workload": curve.workload,
        "system": curve.system,
        "scale": curve.scale,
        "seed": curve.seed,
        "users": curve.users,
        "tiles": curve.tiles,
        "balancer": curve.balancer,
        "requests_per_min": curve.requests_per_min,
        "duration_ms": curve.duration_ms,
        "knee": curve.knee(),
        "rtol": gate.DEFAULT_RTOL,
        "points": [
            {
                "load": p.load,
                "offered": p.offered,
                "throughput_rps": p.throughput_rps,
                "p50": p.p50,
                "p90": p.p90,
                "p99": p.p99,
                "utilization": p.utilization,
            }
            for p in curve.points
        ],
    }


def _flatten(doc: dict[str, Any]) -> dict[str, Any]:
    flat = {key: value for key, value in doc.items()
            if key not in ("points", "rtol")}
    for i, point in enumerate(doc.get("points", ())):
        flat.update((f"points.{i}.{key}", value)
                    for key, value in point.items())
    return flat


#: The saturation-curve gate. Percentiles quantize (2^-7 buckets) and
#: throughput divides by the makespan, so they compare within the stored
#: tolerance; the arrival stream, load grid, and knee must match exactly.
GATE = gate.Rules(
    flatten=_flatten,
    config=("workload", "system", "scale", "seed", "users", "tiles",
            "balancer", "duration_ms"),
    exact=("offered", "knee", "load"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verify-trace-overhead", action="store_true",
                        help="only check the serving observability layer: "
                             "spans-off payload byte-identical to the "
                             "committed golden, traced payload identical "
                             "minus spans, span trees reconcile")
    parser.add_argument("--write-golden", action="store_true",
                        help="(re)write the committed spans-off golden "
                             "payload from the current engine")
    parser.add_argument("--golden", type=str, default=GOLDEN_PATH,
                        help=f"golden payload path (default {GOLDEN_PATH})")
    parser.add_argument("--scale", type=float, default=None,
                        help="expected golden scale (sanity check for "
                             "--verify-trace-overhead; the golden file "
                             "pins the actual spec)")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden(args.golden, args.scale if args.scale else 0.01)
        print(f"serve golden written to {args.golden}")
        return 0
    if args.verify_trace_overhead:
        text, problems = trace_overhead_check(args.golden, args.scale)
        print(text)
        if problems:
            print("\nSPAN OVERHEAD CHECK FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        return 0
    for balancer in ("round_robin", "least_loaded"):
        print(format_serve(run_serve_sweep(balancer=balancer)))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
