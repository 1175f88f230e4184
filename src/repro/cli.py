"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``report``    — regenerate every table/figure (repro.bench.report).
* ``compare``   — run one workload across memory systems (with walk
  latency percentiles).
* ``workloads`` — list the Table-2 workload registry; ``--stats`` prints
  sized record/walk counts and estimated peak build memory at ``--scale``
  without building anything.
* ``run``       — dbworkload-style run modes (repro.modes): ``--max-rate``
  binary-searches the serving fleet's throughput ceiling, ``--schedule``
  runs ramp/step offered-load profiles, and ``--pipe`` replays a captured
  walk trace (trace_io JSONL, gzip ok) through any memory system.
* ``ablation``  — run the design-choice ablations.
* ``trace``     — run one workload with event tracing, export a Chrome
  ``trace_event`` JSON (opens in Perfetto) and optionally JSONL.
* ``profile``   — run one workload traced and fold the events into
  answers: per-component cycle attribution, walk-latency percentiles,
  gen/engine time series (CSV), and an OpenMetrics snapshot.
* ``perf``      — microbenchmark the simulator's hot paths (repro.perf);
  the gate checks kernel checksums, timing ratios stay informational.
* ``chaos``     — sweep a deterministic fault-injection rate over one
  workload/system cell (repro.faults) and print the resilience curve;
  exits nonzero unless degradation is graceful and no request is lost.
* ``serve``     — open-loop serving simulation (repro.serve): a Poisson
  user population drives a client -> load-balancer -> N-tile topology
  (each tile one simulated METAL instance) across a load sweep, and the
  report shows p50/p90/p99 end-to-end latency, throughput, utilization,
  and the saturation knee. Serving observability rides on the same command:
  ``--trace`` records per-request span trees and prints the tail-latency
  attribution, ``--spans-out`` exports them as a Perfetto trace,
  ``--series-out``/``--windows-out`` write windowed time-series CSVs,
  and ``--slo NS`` evaluates a latency objective (attainment % and
  error-budget burn per load point).
* ``policy``    — replacement-policy lab (repro.bench.policy_lab): policies
  x workloads, hit rate vs tag energy, and the Pareto front.

``report``, ``perf``, ``serve`` and ``policy`` are gated (repro.gate):
``--baseline [PATH]`` compares the run against a committed ``BENCH_*.json``
(bare ``--baseline`` names the command's own file) and exits 2 if it is
missing or unreadable, 3 on regression; ``--baseline [PATH]
--write-baseline`` rewrites it. ``report`` and ``policy`` take their
options from their modules' ``add_arguments``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro import gate
from repro.bench import policy_lab
from repro.bench import report as bench_report
from repro.bench.format import render_table
from repro.bench.runner import SYSTEMS
from repro.exec import Executor, RunSpec
from repro.workloads.suite import (
    PAPER_LABELS,
    PAPER_SCALE,
    WORKLOAD_BUILDERS,
    build_workload,
)

#: Variant systems accepted everywhere SYSTEMS is, but excluded from the
#: default Fig. 18 lineup (next-line-prefetch address cache, two-level
#: address hierarchy).
EXTRA_SYSTEMS: tuple[str, ...] = ("address_pf", "address_l2")


def known_systems() -> tuple[str, ...]:
    """Every memory-system kind a subcommand may name."""
    return SYSTEMS + EXTRA_SYSTEMS


def unknown_systems(kinds) -> list[str]:
    """The subset of ``kinds`` no subcommand can build, sorted."""
    return sorted(set(kinds) - set(known_systems()))


def _reject_unknown_systems(kinds) -> bool:
    """Shared validation for compare/trace/profile; True when invalid."""
    unknown = unknown_systems(kinds)
    if unknown:
        print(f"unknown systems: {unknown} "
              f"(choose from {', '.join(known_systems())})", file=sys.stderr)
    return bool(unknown)


def _warn_dropped(tracer, flag: str = "--buffer") -> None:
    """Point at the ring-buffer size that would have kept every event."""
    if not tracer.dropped:
        return
    needed = len(tracer) + tracer.dropped
    suggested = 1 << (needed - 1).bit_length()
    print(
        f"warning: ring buffer dropped {tracer.dropped} of {needed} "
        f"events (oldest first); rerun with {flag} {suggested} to keep "
        f"them all",
        file=sys.stderr,
    )


def _fmt_bytes(n) -> str:
    if n is None:
        return "-"
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{n}B"
        n /= 1024
    return f"{n:.1f}GB"


def cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads.suite import SOA_WORKLOADS, workload_stats

    if args.stats:
        rows = []
        for name in WORKLOAD_BUILDERS:
            stats = workload_stats(name, scale=args.scale)
            dims = ", ".join(
                f"{dim}={stats[dim]:,}" for dim in ("records", "dim", "nnz",
                                                    "edges", "outer")
                if dim in stats
            )
            rows.append([
                name, dims, f"{stats['walks']:,}",
                _fmt_bytes(stats["est_object_bytes"]),
                _fmt_bytes(stats["est_soa_bytes"]),
                "yes" if name in SOA_WORKLOADS else "-",
            ])
        print(render_table(
            ["key", "sized dimensions", "walks", "est. peak (object)",
             "est. peak (SoA)", "soa backend"],
            rows, f"Workload sizing at scale {args.scale:g} "
                  f"({PAPER_SCALE:g} = paper scale)"))
        return 0
    rows = []
    for name in WORKLOAD_BUILDERS:
        workload = build_workload(name, scale=0.02)
        rows.append([name, PAPER_LABELS.get(name, name), workload.dsa,
                     workload.pattern])
    print(render_table(["key", "paper label", "DSA", "pattern"], rows,
                       "Table-2 workload registry"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro import modes

    if _reject_unknown_systems((args.system,)):
        return 2
    with Executor(jobs=args.jobs) as executor:
        if args.max_rate:
            result = modes.find_max_rate(
                workload=args.workload, system=args.system,
                scale=args.scale, seed=args.seed, users=args.users,
                tiles=args.tiles, requests_per_min=args.rpm,
                duration_ms=args.duration_ms, balancer=args.balancer,
                lo=args.lo, hi=args.hi, iters=args.iters,
                max_util=args.max_util, slo_p99_ns=args.slo_p99_ns,
                executor=executor,
            )
            print(modes.format_max_rate(result))
            payload = result.to_dict()
        elif args.schedule:
            try:
                modes.parse_schedule(args.schedule)
            except ValueError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            result = modes.run_schedule(
                workload=args.workload, system=args.system,
                profile=args.schedule, scale=args.scale, seed=args.seed,
                users=args.users, tiles=args.tiles,
                requests_per_min=args.rpm, duration_ms=args.duration_ms,
                balancer=args.balancer, executor=executor,
            )
            print(modes.format_schedule(result))
            payload = result.to_dict()
        else:
            from repro.exec.executor import ExecError
            from repro.sim.metrics import RunResult
            from repro.workloads.trace_io import TraceTruncated

            try:
                payload = modes.replay_trace(
                    args.workload, args.pipe, system=args.system,
                    scale=args.scale, seed=args.seed, executor=executor,
                )
            except ExecError as exc:
                # Worker-side failure: the original error is the last
                # line of the captured traceback.
                reason = str(exc).strip().splitlines()[-1]
                print(f"trace replay failed: {reason}", file=sys.stderr)
                return 1
            except (TraceTruncated, ValueError, KeyError, OSError) as exc:
                print(f"trace replay failed: {exc}", file=sys.stderr)
                return 1
            run = RunResult.from_dict(payload["result"])
            pct = run.latency_percentiles() or {}
            print(render_table(
                ["walks", "makespan", "avg walk lat", "p99", "miss",
                 "working set"],
                [[run.num_walks, run.makespan, run.avg_walk_latency,
                  pct.get("p99", "-"), run.miss_rate,
                  run.working_set_fraction]],
                f"trace replay: {args.pipe} -> {args.workload}/"
                f"{args.system}@{args.scale:g}",
            ))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"run data written to {args.json}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    kinds = tuple(args.systems.split(",")) if args.systems else SYSTEMS
    if _reject_unknown_systems(kinds):
        return 2
    workload_kwargs = {}
    if getattr(args, "backend", None):
        workload_kwargs["backend"] = args.backend
    workload = build_workload(
        args.workload, scale=args.scale, seed=args.seed, **workload_kwargs
    )
    print(f"{workload.name}: {workload.notes}")
    specs = [
        RunSpec(
            workload=workload.name, system=kind, scale=workload.scale,
            seed=workload.seed,
            cache_bytes=args.cache_kb * 1024 if args.cache_kb else None,
            record_latencies=True,
            workload_kwargs=tuple(sorted(workload_kwargs.items())),
        )
        for kind in kinds
    ]
    with Executor(jobs=args.jobs) as executor:
        executor.seed_workloads([workload])
        results = dict(zip(kinds, executor.run_results(specs)))
    base = results.get("stream") or next(iter(results.values()))
    rows = []
    for name, run in results.items():
        pct = run.latency_percentiles() or {}
        rows.append([
            name,
            base.makespan / max(1, run.makespan),
            run.avg_walk_latency,
            pct.get("p50", "-"),
            pct.get("p99", "-"),
            run.miss_rate,
            run.working_set_fraction,
            run.dram_energy_fj / 1e6,
        ])
    print(render_table(
        ["system", "speedup", "walk lat", "p50", "p99", "miss",
         "working set", "DRAM nJ"],
        rows,
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.bench.runner import build_memsys
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.sim.metrics import simulate

    if _reject_unknown_systems((args.system,)):
        return 2
    workload = build_workload(args.workload, scale=args.scale, seed=args.seed)
    sim = replace(
        workload.config.sim_params(), trace=True, trace_buffer=args.buffer
    )
    cache_bytes = args.cache_kb * 1024 if args.cache_kb else None
    memsys = build_memsys(args.system, workload, cache_bytes, sim)
    result = simulate(memsys, workload.requests, sim, workload.total_index_blocks)
    assert result.tracer is not None
    _warn_dropped(result.tracer)

    out = args.out or f"trace_{args.workload}_{args.system}.json"
    write_chrome_trace(result.tracer, out, result.counters)
    print(f"{workload.name} / {args.system}: {result.num_walks} walks, "
          f"{len(result.tracer)} events buffered "
          f"({result.tracer.dropped} dropped)")
    print(f"Chrome trace written to {out} "
          f"(open at https://ui.perfetto.dev or chrome://tracing)")
    if args.jsonl:
        write_jsonl(result.tracer, args.jsonl)
        print(f"JSONL events written to {args.jsonl}")

    rows = [[kind, count] for kind, count in sorted(result.tracer.counts.items())]
    print()
    print(render_table(["event kind", "count"], rows, "Event counts"))
    if result.counters:
        rows = [[name, value] for name, value in result.counters.items()]
        print()
        print(render_table(["counter", "value"], rows, "Counter snapshot"))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.bench.runner import build_memsys
    from repro.obs.export import write_openmetrics
    from repro.obs.profile import build_profile, format_profile, reconcile
    from repro.obs.series import engine_series, gen_series
    from repro.sim.metrics import simulate

    if _reject_unknown_systems((args.system,)):
        return 2
    workload = build_workload(args.workload, scale=args.scale, seed=args.seed)
    sim = replace(
        workload.config.sim_params(), trace=True, trace_buffer=args.buffer
    )
    cache_bytes = args.cache_kb * 1024 if args.cache_kb else None
    memsys = build_memsys(args.system, workload, cache_bytes, sim)
    result = simulate(memsys, workload.requests, sim, workload.total_index_blocks)
    assert result.tracer is not None and result.counters is not None
    _warn_dropped(result.tracer)

    profile = build_profile(result.tracer, strict=False)
    print(f"{workload.name} / {args.system}: {result.num_walks} walks, "
          f"makespan {result.makespan} cycles")
    print()
    print(format_profile(profile))
    if result.depth_hist is not None and result.depth_hist.count:
        depth = result.depth_hist
        print()
        print(render_table(
            ["metric", "nodes"],
            [["p50", depth.percentile(50)], ["p90", depth.percentile(90)],
             ["p99", depth.percentile(99)], ["max", depth.max]],
            "Probe depth (nodes visited per walk)",
        ))

    if result.tracer.dropped:
        print("\nnote: events were dropped; skipping exact reconciliation "
              "(raise --buffer for a trustworthy profile)", file=sys.stderr)
    else:
        problems = reconcile(profile, result)
        if problems:
            print("\nPROFILE DOES NOT RECONCILE with RunResult aggregates:",
                  file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print("\nreconciliation: attribution sums match measured walk "
              "latencies cycle for cycle")

    prefix = args.out_prefix or f"profile_{args.workload}_{args.system}"
    gen = gen_series(result.tracer, walk_interval=args.walk_interval)
    gen.write_csv(f"{prefix}_gen.csv")
    engine = engine_series(result.tracer, makespan=result.makespan)
    engine.write_csv(f"{prefix}_engine.csv")
    histograms = {}
    if result.latency_hist is not None and result.latency_hist.count:
        histograms["walk_latency_cycles"] = result.latency_hist
    if result.depth_hist is not None and result.depth_hist.count:
        histograms["probe_depth_nodes"] = result.depth_hist
    write_openmetrics(f"{prefix}.om", result.counters, histograms)
    print(f"series written to {prefix}_gen.csv ({len(gen)} samples) and "
          f"{prefix}_engine.csv ({len(engine)} samples)")
    print(f"OpenMetrics snapshot written to {prefix}.om")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf import harness
    from repro.perf.kernels import KERNELS

    gate.validate(args)
    names = tuple(args.kernels.split(",")) if args.kernels else None
    if names:
        unknown = sorted(set(names) - set(KERNELS))
        if unknown:
            print(f"unknown kernels: {unknown} "
                  f"(choose from {', '.join(KERNELS)})", file=sys.stderr)
            return 2
    report = harness.run_suite(
        names=names, scale=args.scale, repeat=args.repeat,
        warmup=args.warmup, progress=not args.quiet,
    )
    print(harness.format_report(report))
    if args.out:
        report.write(args.out)
        print(f"perf report written to {args.out}")
    return gate.finish(
        args, report.to_dict(), harness.GATE,
        covered=harness.covered_by(names),
        explain=lambda baseline: "\n" + harness.format_speedups(
            harness.speedups(baseline, report)),
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.bench.chaos import check_graceful, format_chaos, run_chaos
    from repro.exec import Executor

    if _reject_unknown_systems((args.system,)):
        return 2
    try:
        rates = tuple(float(r) for r in args.rates.split(","))
    except ValueError:
        rates = None
    if rates is None or any(not 0.0 <= r <= 1.0 for r in rates):
        print(f"invalid --rates {args.rates!r} (want comma-separated "
              f"floats in [0, 1])", file=sys.stderr)
        return 2
    with Executor(jobs=args.jobs) as executor:
        curve = run_chaos(
            workload=args.workload, system=args.system, rates=rates,
            scale=args.scale, seed=args.seed, plan_seed=args.plan_seed,
            executor=executor,
        )
    print(format_chaos(curve))
    problems = check_graceful(curve)
    if problems:
        print("\nRESILIENCE CHECK FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("\nresilience check: degradation is monotone and bounded; every "
          "injected fault was retried to success or accounted as degraded")
    return 0


def _load_tagged(path: str, load: float, multi: bool) -> str:
    """Insert a ``_load<g>`` tag before the extension for multi-load
    sweeps so every swept point gets its own artifact file."""
    if not multi:
        return path
    stem, dot, ext = path.rpartition(".")
    if dot:
        return f"{stem}_load{load:g}.{ext}"
    return f"{path}_load{load:g}"


def _serve_span_reports(args: argparse.Namespace, curve, loads) -> int:
    """Span-derived artifacts and reports for a traced serve sweep."""
    from repro.obs.export import write_serve_trace
    from repro.obs.series import request_series, serve_windows
    from repro.obs.spans import (
        format_tail_attribution,
        reconcile_spans,
        tail_attribution,
    )
    from repro.serve import ServeResult

    results = [ServeResult.from_dict(data) for data in curve.results]
    for load, result in zip(loads, results):
        assert result.spans is not None
        problems = reconcile_spans(result.spans, result)
        if problems:
            print(f"\nSPAN TREES DO NOT RECONCILE at load {load:g}:",
                  file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
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
    hottest = results[-1]
    print()
    print(format_tail_attribution(
        tail_attribution(hottest.spans, args.tail_pct),
        title=f"p{args.tail_pct:g} tail attribution at load {loads[-1]:g} "
              f"(spans reconcile exactly with end-to-end latency)"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.bench.serve import (
        GATE,
        curve_to_baseline,
        format_serve,
        format_slo,
        run_serve_sweep,
    )
    from repro.exec import Executor

    gate.validate(args)
    if _reject_unknown_systems((args.system,)):
        return 2
    try:
        loads = tuple(float(v) for v in args.loads.split(","))
    except ValueError:
        loads = ()
    if not loads or any(not v > 0 for v in loads):
        print(f"invalid --loads {args.loads!r} (want comma-separated "
              f"positive floats)", file=sys.stderr)
        return 2
    skew: tuple[float, ...] = ()
    if args.skew:
        try:
            skew = tuple(float(v) for v in args.skew.split(","))
        except ValueError:
            skew = ()
        if len(skew) != args.tiles or any(not v > 0 for v in skew):
            print(f"invalid --skew {args.skew!r} (want {args.tiles} "
                  f"comma-separated positive floats)", file=sys.stderr)
            return 2
    trace = bool(args.trace or args.spans_out or args.series_out
                 or args.windows_out)
    with Executor(jobs=args.jobs) as executor:
        curve = run_serve_sweep(
            workload=args.workload, system=args.system, loads=loads,
            scale=args.scale, seed=args.seed, users=args.users,
            tiles=args.tiles, balancer=args.balancer,
            duration_ms=args.duration_ms, requests_per_min=args.rpm,
            tile_speedups=skew, executor=executor,
            trace=trace, keep_results=trace or args.slo is not None,
        )
    print(format_serve(curve))
    if trace:
        rc = _serve_span_reports(args, curve, loads)
        if rc:
            return rc
    if args.slo is not None:
        from repro.serve.slo import SLObjective

        try:
            objective = SLObjective(args.slo, args.slo_target)
        except ValueError as exc:
            print(f"invalid SLO: {exc}", file=sys.stderr)
            return 2
        print()
        print(format_slo(curve, objective))
        if trace:
            from repro.bench.format import render_table
            from repro.serve import ServeResult
            from repro.serve.slo import windowed_slo

            hottest = ServeResult.from_dict(curve.results[-1])
            burn = windowed_slo(hottest.spans, objective, windows=10)
            print()
            print(render_table(
                burn.columns,
                [[cell if not isinstance(cell, float) else round(cell, 3)
                  for cell in row] for row in burn.rows],
                f"Error-budget burn over windows at load {loads[-1]:g}",
            ))
    document = curve_to_baseline(curve)
    if args.json:
        gate.write(args.json, document)
        print(f"curve data written to {args.json}")
    return gate.finish(args, document, GATE)


def cmd_ablation(args: argparse.Namespace) -> int:
    from repro.bench import ablation

    workload = build_workload(args.workload, scale=args.scale)
    print(ablation.format_geometry(ablation.run_geometry_sweep(workload)))
    print()
    print(ablation.format_shared_vs_private(
        ablation.run_shared_vs_private(workload)))
    print()
    print(ablation.format_toggles(ablation.run_mechanism_toggles(workload)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="METAL (ASPLOS'24) reproduction harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list the Table-2 workloads")
    p.add_argument("--stats", action="store_true",
                   help="print sized record/walk counts and estimated "
                        "peak build memory per workload at --scale")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scale for --stats sizing (250 = paper scale)")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser(
        "run",
        help="dbworkload-style run modes: --max-rate throughput search, "
             "--schedule load profiles, --pipe trace replay (repro.modes)",
    )
    p.add_argument("workload", choices=sorted(WORKLOAD_BUILDERS))
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--max-rate", action="store_true",
                      help="binary-search the highest sustainable "
                           "offered load of the serving topology")
    mode.add_argument("--schedule", type=str, default=None,
                      metavar="PROFILE",
                      help="offered-load profile: 'ramp:lo:hi:n' or "
                           "'step:l1,l2,...' (one serve phase per load)")
    mode.add_argument("--pipe", type=str, default=None, metavar="TRACE",
                      help="replay a captured walk trace (trace_io JSONL, "
                           ".gz ok) through --system")
    p.add_argument("--system", default="metal",
                   help="memory system to drive (default: metal)")
    p.add_argument("--scale", type=float, default=0.05,
                   help="workload scale (serve modes default 0.05; pipe "
                        "replay needs the scale the trace was captured at)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, default=32,
                   help="mean active users (serve modes)")
    p.add_argument("--tiles", type=int, default=4,
                   help="tiles behind the load balancer (serve modes)")
    p.add_argument("--rpm", type=float, default=None,
                   help="requests/min per user (default: calibrated so "
                        "load 1.0 saturates the fleet)")
    p.add_argument("--duration-ms", type=int, default=5,
                   help="arrival horizon per probe/phase")
    p.add_argument("--balancer", default="round_robin",
                   choices=("round_robin", "least_loaded"))
    p.add_argument("--lo", type=float, default=0.1,
                   help="--max-rate bracket lower bound (load multiplier)")
    p.add_argument("--hi", type=float, default=2.0,
                   help="--max-rate bracket upper bound")
    p.add_argument("--iters", type=int, default=7,
                   help="--max-rate bisection steps after the bracket")
    p.add_argument("--max-util", type=float, default=0.9,
                   help="sustainable-utilization bound for --max-rate")
    p.add_argument("--slo-p99-ns", type=int, default=None,
                   help="optional p99 latency bound for --max-rate")
    p.add_argument("--jobs", type=str, default="1",
                   help="worker processes: a number or 'auto'")
    p.add_argument("--json", type=str, default=None,
                   help="write machine-readable run data to this file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run one workload across systems")
    p.add_argument("workload", choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--systems", type=str, default=None,
                   help="comma-separated subset, e.g. stream,metal")
    p.add_argument("--cache-kb", type=int, default=None)
    p.add_argument("--backend", choices=("object", "soa"), default=None,
                   help="index storage backend (soa enables batched "
                        "walk generation)")
    p.add_argument("--jobs", type=str, default="1",
                   help="worker processes: a number or 'auto'")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="regenerate every table and figure")
    bench_report.add_arguments(p)
    p.set_defaults(func=bench_report.run)

    p = sub.add_parser(
        "perf", help="microbenchmark the simulator's hot paths"
    )
    p.add_argument("--scale", type=float, default=0.05,
                   help="kernel input scale (default 0.05; the committed "
                        "BENCH_perf.json baseline uses this scale)")
    p.add_argument("--repeat", type=int, default=5,
                   help="timed repetitions per kernel (median reported)")
    p.add_argument("--warmup", type=int, default=1,
                   help="discarded warmup runs per kernel")
    p.add_argument("--kernels", type=str, default=None,
                   help="comma-separated kernel subset")
    p.add_argument("--out", type=str, default=None,
                   help="write the JSON report to this path")
    gate.add_arguments(p, "BENCH_perf.json")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-kernel progress on stderr")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser(
        "chaos",
        help="fault-injection resilience curve (repro.faults)",
    )
    p.add_argument("workload", choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--system", default="metal",
                   help="memory system to stress (default: metal)")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0,
                   help="workload generator seed")
    p.add_argument("--plan-seed", type=int, default=0,
                   help="fault-schedule seed (same seed => same faults)")
    p.add_argument("--rates", type=str, default="0.0,0.01,0.02,0.05,0.1",
                   help="comma-separated per-opportunity fault rates")
    p.add_argument("--jobs", type=str, default="1",
                   help="worker processes: a number or 'auto'")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="open-loop serving load sweep with saturation knee "
             "(repro.serve)",
    )
    p.add_argument("workload", choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--system", default="metal",
                   help="memory system each tile runs (default: metal)")
    p.add_argument("--scale", type=float, default=0.05,
                   help="workload scale of the per-tile backend simulation")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (population, arrival streams)")
    p.add_argument("--users", type=int, default=32,
                   help="mean active users (Poisson population)")
    p.add_argument("--rpm", type=float, default=None,
                   help="requests/min per user (default: calibrate so "
                        "load 1.0 saturates the fleet)")
    p.add_argument("--tiles", type=int, default=4,
                   help="tiles behind the load balancer")
    p.add_argument("--balancer", default="round_robin",
                   choices=("round_robin", "least_loaded"))
    p.add_argument("--skew", type=str, default=None,
                   help="comma-separated per-tile speed multipliers "
                        "(skewed-fleet balancer studies)")
    p.add_argument("--duration-ms", type=int, default=5,
                   help="arrival-generation horizon per swept load")
    p.add_argument("--loads", type=str,
                   default="0.2,0.4,0.6,0.8,0.9,1.0,1.1,1.3",
                   help="comma-separated offered-load multipliers")
    p.add_argument("--jobs", type=str, default="1",
                   help="worker processes: a number or 'auto'")
    p.add_argument("--json", type=str, default=None,
                   help="write machine-readable curve data to this file")
    gate.add_arguments(p, "BENCH_serve.json")
    p.add_argument("--trace", action="store_true",
                   help="record request span trees at every load point "
                        "and print the tail-latency attribution")
    p.add_argument("--slo", type=int, default=None, metavar="NS",
                   help="latency objective in ns; print attainment and "
                        "error-budget burn per load point (with spans, "
                        "also burn over time at the hottest load)")
    p.add_argument("--slo-target", type=float, default=0.99,
                   help="required attainment fraction (default 0.99)")
    p.add_argument("--spans-out", type=str, default=None, metavar="PATH",
                   help="write a Perfetto-loadable Chrome trace of the "
                        "request spans (implies --trace; multi-load "
                        "sweeps get a _load<x> tag per point)")
    p.add_argument("--series-out", type=str, default=None, metavar="PATH",
                   help="write the completion time series CSV "
                        "(repro.obs.series.request_series; implies "
                        "--trace)")
    p.add_argument("--windows-out", type=str, default=None, metavar="PATH",
                   help="write windowed serving metrics CSV — throughput, "
                        "p50/p99, queue depths, per-tile utilization "
                        "(repro.obs.series.serve_windows; implies --trace)")
    p.add_argument("--windows", type=int, default=50,
                   help="window count for --series-out/--windows-out")
    p.add_argument("--tail-pct", type=float, default=99.0,
                   help="percentile cutoff for the tail attribution "
                        "report (default 99)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "policy",
        help="replacement-policy lab: sweep policies x workloads, "
             "Pareto (hit-rate vs tag-energy), BENCH_policy.json gate",
    )
    policy_lab.add_arguments(p)
    p.set_defaults(func=policy_lab.run)

    p = sub.add_parser("ablation", help="design-choice ablations")
    p.add_argument("--workload", default="scan", choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--scale", type=float, default=0.25)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("trace", help="run one workload with event tracing")
    p.add_argument("workload", choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--system", default="metal",
                   help="memory system to trace (default: metal)")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-kb", type=int, default=None)
    p.add_argument("--buffer", type=int, default=1 << 20,
                   help="tracer ring-buffer capacity in events")
    p.add_argument("--out", type=str, default=None,
                   help="Chrome trace output path "
                        "(default: trace_<workload>_<system>.json)")
    p.add_argument("--jsonl", type=str, default=None,
                   help="also export raw events as JSONL to this path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="cycle attribution, latency percentiles, and time series",
    )
    p.add_argument("workload", choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--system", default="metal",
                   help="memory system to profile (default: metal)")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-kb", type=int, default=None)
    p.add_argument("--buffer", type=int, default=1 << 20,
                   help="tracer ring-buffer capacity in events")
    p.add_argument("--walk-interval", type=int, default=64,
                   help="gen-series sampling interval in walks")
    p.add_argument("--out-prefix", type=str, default=None,
                   help="output prefix for CSV/OpenMetrics files "
                        "(default: profile_<workload>_<system>)")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
