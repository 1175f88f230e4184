"""Traced single-workload runs: ``python -m repro trace`` and ``profile``.

Both subcommands share one prologue (:func:`add_arguments` and
:func:`_traced_run`): build the workload, simulate it on one memory
system with the event tracer on, and warn when the ring buffer dropped
events. ``trace`` then exports the raw events (Chrome ``trace_event``
JSON for Perfetto, optionally JSONL); ``profile`` folds them into cycle
attribution, latency percentiles, gen/engine time series (CSV) and an
OpenMetrics snapshot, and exits 1 unless the attribution reconciles
with the run's aggregates.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.bench.format import render_table
from repro.bench.runner import build_memsys, reject_unknown_systems
from repro.cmdline import (
    add_workload,
    positive_float,
    positive_int,
    report_problems,
)
from repro.sim.metrics import simulate
from repro.workloads.suite import build_workload


def _warn_dropped(tracer) -> None:
    """Point at the ring-buffer size that would have kept every event."""
    if not tracer.dropped:
        return
    needed = len(tracer) + tracer.dropped
    suggested = 1 << (needed - 1).bit_length()
    print(
        f"warning: ring buffer dropped {tracer.dropped} of {needed} "
        f"events (oldest first); rerun with --buffer {suggested} to keep "
        f"them all",
        file=sys.stderr,
    )


def add_arguments(parser: argparse.ArgumentParser, verb: str) -> None:
    """The options every traced run takes."""
    add_workload(parser)
    parser.add_argument("--system", default="metal",
                        help=f"memory system to {verb} (default: metal)")
    parser.add_argument("--scale", type=positive_float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-kb", type=positive_int, default=None)
    parser.add_argument("--buffer", type=positive_int, default=1 << 20,
                        help="tracer ring-buffer capacity in events")


def _traced_run(args: argparse.Namespace):
    """``(workload, result)`` of one traced simulation; None on a bad
    ``--system``."""
    if reject_unknown_systems((args.system,)):
        return None
    workload = build_workload(args.workload, scale=args.scale, seed=args.seed)
    sim = replace(
        workload.config.sim_params(), trace=True, trace_buffer=args.buffer
    )
    cache_bytes = args.cache_kb * 1024 if args.cache_kb else None
    memsys = build_memsys(args.system, workload, cache_bytes, sim)
    result = simulate(memsys, workload.requests, sim, workload.total_index_blocks,
                      walks=workload.walks)
    assert result.tracer is not None and result.counters is not None
    _warn_dropped(result.tracer)
    return workload, result


# --------------------------------------------------------------------- #
# python -m repro trace
# --------------------------------------------------------------------- #

def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    add_arguments(parser, "trace")
    parser.add_argument("--out", type=str, default=None,
                        help="Chrome trace output path "
                             "(default: trace_<workload>_<system>.json)")
    parser.add_argument("--jsonl", type=str, default=None,
                        help="also export raw events as JSONL to this path")


def run_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import write_chrome_trace, write_jsonl

    traced = _traced_run(args)
    if traced is None:
        return 2
    workload, result = traced
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


# --------------------------------------------------------------------- #
# python -m repro profile
# --------------------------------------------------------------------- #

def add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    add_arguments(parser, "profile")
    parser.add_argument("--walk-interval", type=positive_int, default=64,
                        help="gen-series sampling interval in walks")
    parser.add_argument("--out-prefix", type=str, default=None,
                        help="output prefix for CSV/OpenMetrics files "
                             "(default: profile_<workload>_<system>)")


def run_profile(args: argparse.Namespace) -> int:
    from repro.obs.export import write_openmetrics
    from repro.obs.profile import build_profile, format_profile, reconcile
    from repro.obs.series import engine_series, gen_series

    traced = _traced_run(args)
    if traced is None:
        return 2
    workload, result = traced
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
    elif report_problems("PROFILE DOES NOT RECONCILE with RunResult "
                         "aggregates", reconcile(profile, result)):
        return 1
    else:
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
