"""Command-line interface: ``python -m repro <subcommand>``.

The only entry point of the reproduction harness. Each subcommand lives
next to the code it drives: its module exposes ``add_arguments(parser)``
and ``run(args) -> int``, and :data:`COMMANDS` lists them.

Each kind of run has one home. A grid of (workload, memory system)
cells, the paper's Section-5 evaluation, is ``compare`` (one workload,
or a captured walk trace with ``--replay TRACE``) and ``report`` (every
figure). A serving load sweep is ``serve`` (``--loads`` for the grid,
``--slo NS`` for per-load attainment).

``report``, ``serve``, ``scale`` and ``policy`` are gated
(repro.gate): ``--baseline [PATH]`` compares the run against a committed
``BENCH_*.json`` (bare ``--baseline`` names the command's own file) and
exits 2 if it is missing or unreadable, 3 on regression; ``--baseline
[PATH] --write-baseline`` rewrites it. Bad option values exit 2 before
any work starts (repro.cmdline).
"""

from __future__ import annotations

import argparse

from repro.bench import (
    ablation,
    chaos,
    policy_lab,
    report,
    runner,
    scale_sweep,
    serve,
    tables,
)
from repro.obs import traced

#: ``(name, help, add_arguments, run)`` per subcommand, in help order.
COMMANDS = (
    ("workloads", "list the Table-2 workloads; --stats sizes them at "
                  "--scale without building anything",
     tables.add_arguments, tables.run),
    ("compare", "run one workload (or replay a walk trace) across systems",
     runner.add_arguments, runner.run),
    ("report", "regenerate every table and figure",
     report.add_arguments, report.run),
    ("chaos", "fault-injection resilience curve (repro.faults)",
     chaos.add_arguments, chaos.run),
    ("serve", "open-loop serving load sweep with saturation knee "
              "(repro.serve)",
     serve.add_arguments, serve.run),
    ("scale", "paper-scale sweep: trends and build-memory budgets up to "
              "the 10M-key scan, BENCH_scale.json gate",
     scale_sweep.add_arguments, scale_sweep.run),
    ("policy", "replacement-policy lab: sweep policies x workloads, "
               "Pareto (hit-rate vs tag-energy), BENCH_policy.json gate",
     policy_lab.add_arguments, policy_lab.run),
    ("ablation", "design-choice ablations",
     ablation.add_arguments, ablation.run),
    ("trace", "run one workload with event tracing",
     traced.add_trace_arguments, traced.run_trace),
    ("profile", "cycle attribution, latency percentiles, and time series",
     traced.add_profile_arguments, traced.run_profile),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="METAL (ASPLOS'24) reproduction harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, run in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
