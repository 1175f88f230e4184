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
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from typing import Any

from repro import gate
from repro.bench.format import render_table
from repro.bench.runner import reject_unknown_systems
from repro.cmdline import (
    add_jobs,
    add_workload,
    float_list,
    positive_float,
    positive_int,
    report_problems,
)
from repro.exec import Executor, default_executor
from repro.serve.spec import BALANCERS, ServeSpec

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
    span analyses. ``loads`` are swept ascending, without duplicates:
    the knee reads the first point as the lightest load, and the tail
    and burn reports read the last as the hottest.
    """
    loads = tuple(sorted(set(loads)))
    executor = executor or default_executor()
    if requests_per_min is None:
        requests_per_min = calibrated_rpm(
            workload, system, scale, seed, users, tiles)
    specs = [
        ServeSpec.make(
            workload, system=system, scale=scale, seed=seed, users=users,
            requests_per_min=requests_per_min, load=load,
            duration_ms=duration_ms, tiles=tiles, balancer=balancer,
            tile_speedups=tile_speedups, trace=trace,
        )
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
# Span-overhead gate (repro report --verify-trace-overhead)
# --------------------------------------------------------------------- #

#: Committed golden: the spans-off ServeResult's digest (scale 0.01)
#: beside the spec that produced it.
GOLDEN_PATH = "BENCH_serve_result.json"


def result_digest(result: dict[str, Any]) -> str:
    """SHA-256 of a ServeResult payload's canonical JSON (sorted keys)."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()
    ).hexdigest()


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
    golden_path: str = GOLDEN_PATH,
) -> tuple[str, list[str]]:
    """Run the golden spec with spans off and on; report any drift.

    Three invariants, mirroring the sim engine's trace-overhead gate:

    1. the spans-off payload's digest equals the committed golden's
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
        expected = golden["result_sha256"]
        spec = _golden_spec(golden)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return "", [f"golden {golden_path} unreadable: {exc!r}"]
    off = simulate_serve(spec).to_dict()
    canon = lambda d: json.dumps(d, sort_keys=True)
    actual = result_digest(off)
    if actual != expected:
        problems.append(
            f"spans-off ServeResult drifted from the committed golden "
            f"({golden_path}): sha256 {actual} != {expected}; if the "
            "serving engine changed on purpose, regenerate with "
            "python -c \"from repro.bench.serve import write_golden; "
            "write_golden()\"")
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
            "committed golden digest; traced payload identical minus 'spans'; "
            "every span tree reconciles with its end-to-end latency")
    return "\n".join(lines), problems


def write_golden(golden_path: str = GOLDEN_PATH) -> None:
    """(Re)write the committed golden: the spec and its spans-off
    ServeResult digest (scale 0.01)."""
    from repro.serve.engine import simulate_serve

    rpm = calibrated_rpm("scan", "metal", 0.01, 0, 32, 4)
    spec = ServeSpec.make(
        "scan", system="metal", scale=0.01, seed=0, users=32,
        requests_per_min=rpm, load=1.0, duration_ms=3, tiles=4,
        balancer="round_robin",
    )
    gate.write(golden_path, {
        "spec": spec.canonical_dict(),
        "result_sha256": result_digest(simulate_serve(spec).to_dict()),
    })


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


# --------------------------------------------------------------------- #
# python -m repro serve
# --------------------------------------------------------------------- #

def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_workload(parser)
    parser.add_argument("--system", default="metal",
                        help="memory system each tile runs (default: metal)")
    parser.add_argument("--scale", type=positive_float, default=0.05,
                        help="workload scale of the per-tile backend "
                             "simulation")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (population, arrival streams)")
    parser.add_argument("--users", type=positive_int, default=32,
                        help="mean active users (Poisson population)")
    parser.add_argument("--tiles", type=positive_int, default=4,
                        help="tiles behind the load balancer")
    parser.add_argument("--rpm", type=positive_float, default=None,
                        help="requests/min per user (default: calibrated "
                             "so load 1.0 saturates the fleet)")
    parser.add_argument("--duration-ms", type=positive_int, default=5,
                        help="arrival horizon per swept load")
    parser.add_argument("--balancer", default="round_robin",
                        choices=BALANCERS)
    add_jobs(parser)
    parser.add_argument("--json", type=str, default=None,
                        help="write machine-readable results to this file")
    parser.add_argument("--skew", type=float_list(0.0), default=(),
                        help="comma-separated per-tile speed multipliers "
                             "(skewed-fleet balancer studies)")
    parser.add_argument("--loads", type=float_list(0.0),
                        default=DEFAULT_LOADS,
                        help="comma-separated offered-load multipliers "
                             "(swept in ascending order)")
    gate.add_arguments(parser, "BENCH_serve.json")
    parser.add_argument("--trace", action="store_true",
                        help="record request span trees at every load "
                             "point and print the tail-latency attribution")
    parser.add_argument("--slo", type=int, default=None, metavar="NS",
                        help="latency objective in ns; print attainment and "
                             "error-budget burn per load point (with spans, "
                             "also burn over time at the hottest load)")
    parser.add_argument("--slo-target", type=float, default=0.99,
                        help="required attainment fraction (default 0.99)")
    parser.add_argument("--spans-out", type=str, default=None, metavar="PATH",
                        help="write a Perfetto-loadable Chrome trace of the "
                             "request spans (implies --trace; multi-load "
                             "sweeps get a _load<x> tag per point)")
    parser.add_argument("--series-out", type=str, default=None,
                        metavar="PATH",
                        help="write the completion time series CSV "
                             "(repro.obs.series.request_series; implies "
                             "--trace)")
    parser.add_argument("--windows-out", type=str, default=None,
                        metavar="PATH",
                        help="write windowed serving metrics CSV — "
                             "throughput, p50/p99, queue depths, per-tile "
                             "utilization (repro.obs.series.serve_windows; "
                             "implies --trace)")
    parser.add_argument("--windows", type=positive_int, default=50,
                        help="window count for --series-out/--windows-out")
    parser.add_argument("--tail-pct", type=float, default=99.0,
                        help="percentile cutoff for the tail attribution "
                             "report (default 99)")


def _load_tagged(path: str, load: float, multi: bool) -> str:
    """Insert a ``_load<g>`` tag before the extension for multi-load
    sweeps so every swept point gets its own artifact file."""
    if not multi:
        return path
    stem, dot, ext = path.rpartition(".")
    if dot:
        return f"{stem}_load{load:g}.{ext}"
    return f"{path}_load{load:g}"


def _span_reports(args: argparse.Namespace, curve: ServeCurve) -> int:
    """Span-derived artifacts and reports for a traced sweep."""
    from repro.obs.export import write_serve_trace
    from repro.obs.series import request_series, serve_windows
    from repro.obs.spans import (
        format_tail_attribution,
        reconcile_spans,
        tail_attribution,
    )
    from repro.serve import ServeResult

    loads = [point.load for point in curve.points]
    results = [ServeResult.from_dict(data) for data in curve.results]
    for load, result in zip(loads, results):
        assert result.spans is not None
        if report_problems(f"SPAN TREES DO NOT RECONCILE at load {load:g}",
                           reconcile_spans(result.spans, result)):
            return 1
    multi = len(results) > 1
    for load, result in zip(loads, results):
        log = result.spans
        if args.spans_out:
            path = _load_tagged(args.spans_out, load, multi)
            write_serve_trace(log, path, meta={
                "workload": curve.workload, "system": curve.system,
                "load": load, "balancer": curve.balancer,
            })
            print(f"span trace for load {load:g} written to {path} "
                  f"(open at https://ui.perfetto.dev)")
        if args.series_out:
            path = _load_tagged(args.series_out, load, multi)
            request_series(log.completions(),
                           windows=args.windows).write_csv(path)
            print(f"completion series for load {load:g} written to {path}")
        if args.windows_out:
            path = _load_tagged(args.windows_out, load, multi)
            serve_windows(log, windows=args.windows,
                          tiles=curve.tiles).write_csv(path)
            print(f"windowed metrics for load {load:g} written to {path}")
    print()
    print(format_tail_attribution(
        tail_attribution(results[-1].spans, args.tail_pct),
        title=f"p{args.tail_pct:g} tail attribution at load {loads[-1]:g} "
              f"(spans reconcile exactly with end-to-end latency)"))
    return 0


def run(args: argparse.Namespace) -> int:
    """Sweep offered load, print the saturation curve, and gate it."""
    from repro.serve.slo import SLObjective

    gate.validate(args)
    if reject_unknown_systems((args.system,)):
        return 2
    if args.skew and len(args.skew) != args.tiles:
        print(f"invalid --skew: {len(args.skew)} multipliers for "
              f"{args.tiles} tiles", file=sys.stderr)
        return 2
    objective = None
    if args.slo is not None:
        try:
            objective = SLObjective(args.slo, args.slo_target)
        except ValueError as exc:
            print(f"invalid SLO: {exc}", file=sys.stderr)
            return 2
    trace = bool(args.trace or args.spans_out or args.series_out
                 or args.windows_out)
    with Executor(jobs=args.jobs) as executor:
        curve = run_serve_sweep(
            workload=args.workload, system=args.system, loads=args.loads,
            scale=args.scale, seed=args.seed, users=args.users,
            tiles=args.tiles, balancer=args.balancer,
            duration_ms=args.duration_ms, requests_per_min=args.rpm,
            tile_speedups=args.skew, executor=executor,
            trace=trace, keep_results=trace or objective is not None,
        )
    print(format_serve(curve))
    if trace and _span_reports(args, curve):
        return 1
    if objective is not None:
        print()
        print(format_slo(curve, objective))
        if trace:
            from repro.serve import ServeResult
            from repro.serve.slo import windowed_slo

            hottest = ServeResult.from_dict(curve.results[-1])
            burn = windowed_slo(hottest.spans, objective, windows=10)
            print()
            print(render_table(
                burn.columns,
                [[cell if not isinstance(cell, float) else round(cell, 3)
                  for cell in row] for row in burn.rows],
                f"Error-budget burn over windows at load "
                f"{curve.points[-1].load:g}",
            ))
    document = curve_to_baseline(curve)
    if args.json:
        gate.write(args.json, document)
        print(f"curve data written to {args.json}")
    return gate.finish(args, document, GATE)
