"""Shared driver: run one workload through each memory organization.

Centralizes the per-system setup the experiments share: cache geometry,
IX-cache key-block sizing from the workload's key universe, fresh
descriptors per run, and the FA-OPT two-pass construction.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.bench.format import render_table
from repro.cmdline import add_jobs, add_workload, positive_float, positive_int

from repro.core.ix_cache import block_bits_for
from repro.params import CacheParams, SimParams
from repro.sim.memsys import MemorySystem, make_memsys
from repro.sim.metrics import RunResult, simulate
from repro.workloads.suite import Workload

#: Every organization the evaluation compares, in Fig. 18 order.
SYSTEMS: tuple[str, ...] = ("stream", "address", "fa_opt", "xcache", "metal_ix", "metal")
#: The cache-bearing subset (Fig. 15-17 trends).
CACHE_SYSTEMS: tuple[str, ...] = ("fa_opt", "xcache", "metal_ix", "metal")
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


def reject_unknown_systems(kinds) -> bool:
    """Shared ``--system``/``--systems`` validation; True when invalid."""
    unknown = unknown_systems(kinds)
    if unknown:
        print(f"unknown systems: {unknown} "
              f"(choose from {', '.join(known_systems())})", file=sys.stderr)
    return bool(unknown)


def build_memsys(
    kind: str,
    workload: Workload,
    cache_bytes: int | None = None,
    sim: SimParams | None = None,
    tune: bool = True,
    batch_walks: int | None = None,
    **overrides: Any,
) -> MemorySystem:
    """Instantiate one memory system configured for a workload."""
    cache_bytes = cache_bytes or workload.default_cache_bytes
    sim = sim or workload.config.sim_params()
    params = (overrides.pop("cache_params", None)
              or CacheParams(capacity_bytes=cache_bytes))
    kwargs: dict[str, Any] = {}
    if kind.startswith("metal"):
        default_bits = workload.ix_key_block_bits
        if default_bits is None:
            default_bits = block_bits_for(workload.key_universe, params)
        kwargs["key_block_bits"] = overrides.pop("key_block_bits", default_bits)
    if kind == "metal":
        kwargs["descriptors"] = overrides.pop(
            "descriptors", workload.descriptor_factory()
        )
        kwargs["tune"] = tune
        kwargs["batch_walks"] = batch_walks or max(
            200, len(workload.requests) // 8
        )
    if kind == "fa_opt":
        kwargs["requests"] = workload.faopt_pairs()
        kwargs["walks"] = workload.walks
    kwargs.update(overrides)
    return make_memsys(kind, sim, params, **kwargs)


def run_workload(
    workload: Workload,
    kind: str,
    cache_bytes: int | None = None,
    sim: SimParams | None = None,
    timed: bool = True,
    record_latencies: bool = False,
    **overrides: Any,
) -> RunResult:
    """Simulate one (workload, memory system) pair."""
    sim = sim or workload.config.sim_params()
    memsys = build_memsys(kind, workload, cache_bytes, sim, **overrides)
    return simulate(
        memsys,
        workload.requests,
        sim,
        workload.total_index_blocks,
        timed=timed,
        record_latencies=record_latencies,
        walks=workload.walks,
    )


def compare_systems(
    workload: Workload,
    kinds: tuple[str, ...] = SYSTEMS,
    cache_bytes: int | None = None,
    sim: SimParams | None = None,
    timed: bool = True,
    record_latencies: bool = False,
) -> dict[str, RunResult]:
    """Run every requested organization over one workload."""
    return {
        kind: run_workload(workload, kind, cache_bytes, sim, timed=timed,
                           record_latencies=record_latencies)
        for kind in kinds
    }


# --------------------------------------------------------------------- #
# python -m repro compare
# --------------------------------------------------------------------- #

def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_workload(parser)
    parser.add_argument("--scale", type=positive_float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--systems", type=str, default=None,
                        help="comma-separated subset, e.g. stream,metal")
    parser.add_argument("--cache-kb", type=positive_int, default=None)
    add_jobs(parser)
    parser.add_argument("--replay", type=str, default=None, metavar="TRACE",
                        help="simulate a captured walk trace (trace_io "
                             "JSONL, .gz ok) instead of the workload's own "
                             "requests; give the --scale it was captured at")


def run(args: argparse.Namespace) -> int:
    """Run one workload across memory systems, with latency percentiles."""
    from repro.exec import ExecError, Executor, RunSpec, get_workload
    from repro.exec.spec import trace_digest

    kinds = tuple(args.systems.split(",")) if args.systems else SYSTEMS
    if reject_unknown_systems(kinds):
        return 2
    workload = get_workload(args.workload, args.scale, args.seed)
    print(f"{workload.name}: {workload.notes}")
    try:
        replay = {}
        if args.replay:
            replay = {"trace_path": args.replay,
                      "trace_sha256": trace_digest(args.replay)}
        specs = [
            RunSpec.make(
                args.workload, kind, scale=args.scale, seed=args.seed,
                cache_bytes=args.cache_kb * 1024 if args.cache_kb else None,
                record_latencies=True, **replay,
            )
            for kind in kinds
        ]
        with Executor(jobs=args.jobs) as executor:
            results = dict(zip(kinds, executor.run_results(specs)))
    except (ExecError, ValueError, KeyError, OSError) as exc:
        if not args.replay:
            raise
        # A worker-side failure carries its traceback; the original error
        # is the last line.
        reason = (str(exc).strip().splitlines()[-1]
                  if isinstance(exc, ExecError) else exc)
        print(f"trace replay failed: {reason}", file=sys.stderr)
        return 1
    base = results.get("stream") or next(iter(results.values()))
    rows = []
    for name, result in results.items():
        pct = result.latency_percentiles() or {}
        rows.append([
            name,
            base.makespan / max(1, result.makespan),
            result.avg_walk_latency,
            pct.get("p50", "-"),
            pct.get("p99", "-"),
            result.miss_rate,
            result.working_set_fraction,
            result.dram_energy_fj / 1e6,
        ])
    print(render_table(
        ["system", "speedup", "walk lat", "p50", "p99", "miss",
         "working set", "DRAM nJ"],
        rows,
    ))
    return 0
