"""Table 2 — workload setup, regenerated from the live suite; and
``python -m repro workloads``, the registry listing and sizing table."""

from __future__ import annotations

import argparse

from repro.bench.format import render_table
from repro.cmdline import positive_float
from repro.workloads.suite import (
    PAPER_LABELS,
    PAPER_SCALE,
    WORKLOAD_BUILDERS,
    Workload,
    build_workload,
    workload_stats,
)


def format_table2(workloads: list[Workload]) -> str:
    headers = [
        "workload", "DSA", "pattern", "walks", "ops/walk", "ops/compute",
        "index blocks", "notes",
    ]
    rows = []
    for wl in workloads:
        rows.append([
            PAPER_LABELS.get(wl.name, wl.name),
            wl.dsa,
            wl.pattern,
            len(wl.requests),
            wl.config.ops_per_walk,
            wl.config.ops_per_compute,
            wl.total_index_blocks,
            wl.notes,
        ])
    return render_table(headers, rows, "Table 2 — Workload setup")


def _fmt_bytes(n) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{n}B"
        n /= 1024
    return f"{n:.1f}GB"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stats", action="store_true",
                        help="print sized record/walk counts and estimated "
                             "peak build memory per workload at --scale")
    parser.add_argument("--scale", type=positive_float, default=1.0,
                        help="scale for --stats sizing (250 = paper scale)")


def run(args: argparse.Namespace) -> int:
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
                _fmt_bytes(stats["est_bytes"]),
            ])
        print(render_table(
            ["key", "sized dimensions", "walks", "est. peak"],
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
