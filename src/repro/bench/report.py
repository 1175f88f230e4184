"""Regenerate every table and figure into one text report.

Usage::

    python -m repro report [--scale 0.25] [--out report.txt]

Every cell names its workload by registry name and scale; the exec
worker's memo (:func:`repro.exec.get_workload`) builds each one once per
process and shares it across experiments.

Regression baselines: ``--baseline [PATH] --write-baseline`` stores the
per-figure key metrics (Fig. 18 speedups, headline ratios, Table-3
geomeans) of this run; a later ``--baseline [PATH]`` run compares against
them through :mod:`repro.gate`. The simulation is deterministic
integer-cycle, so at a fixed scale/seed the stored metrics are exactly
reproducible across machines.
"""

from __future__ import annotations

import argparse
import json
import time

from repro import gate
from repro.bench import adaptivity, breakdown, claims, energy, grid, occupancy
from repro.bench import scaling
from repro.bench import speedup as speedup_mod
from repro.bench import sweep, tables, tagmatch, trends
from repro.bench.format import geomean
from repro.cmdline import add_jobs, positive_float, report_problems
from repro.exec import ExecError, Executor, ResultStore, get_workload
from repro.workloads.suite import WORKLOAD_BUILDERS, build_workload


def generate_report(
    scale: float = 0.25, fast: bool = False,
    collect_json: dict | None = None,
    executor: Executor | None = None,
) -> str:
    """Run the full harness; returns the text report.

    When ``collect_json`` is a dict, machine-readable figure data is
    stored into it (per-workload speedups, Table-3 ratios, per-run stats).

    Cells are submitted through ``executor`` (an in-process serial one is
    created when omitted); a failed cell turns its section into a failure
    note — spec plus worker traceback — instead of killing the report.
    """
    sections: list[str] = []
    started = time.time()
    own_executor = executor is None
    executor = executor or Executor(jobs=1)

    def add(title: str, body: str) -> None:
        sections.append(f"{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n")

    def guarded(block) -> None:
        """Run one experiment block; render its failure instead of dying."""
        try:
            block()
        except ExecError as exc:
            add(f"{getattr(block, '__name__', 'section')} FAILED", str(exc))

    add("Fig. 7", tagmatch.format_fig7(tagmatch.run_tagmatch()))
    # Table 2 fills the worker memo before any cell runs, so a pool forked
    # later inherits every build.
    add("Table 2", tables.format_table2(
        [get_workload(name, scale) for name in WORKLOAD_BUILDERS]))

    def figs_15_17() -> None:
        rows = grid.run_grid(trends.DEFAULT_WORKLOADS, trends.TREND_CELLS,
                             scale, executor)
        add("Fig. 15", trends.format_fig15(rows))
        add("Fig. 16", trends.format_fig16(rows))
        add("Fig. 17", trends.format_fig17(rows))

    def figs_18_19_25() -> None:
        rows = grid.run_grid(scale=scale, executor=executor)
        add("Fig. 18", speedup_mod.format_fig18(rows))
        if collect_json is not None:
            collect_json["fig18"] = {
                r.workload: {k: run.to_dict() for k, run in r.runs.items()}
                for r in rows
            }
            collect_json["headline"] = speedup_mod.headline_ratios(rows)
        add("Fig. 19", energy.format_fig19(rows))
        add("Fig. 25", energy.format_fig25(rows))

    def fig_20() -> None:
        add("Fig. 20", breakdown.format_fig20(grid.run_grid(
            breakdown.DEFAULT_WORKLOADS, breakdown.BREAKDOWN_CELLS,
            scale, executor)))

    def attribution() -> None:
        add("Cycle attribution", breakdown.format_attribution(grid.run_grid(
            breakdown.ATTRIBUTION_WORKLOADS, breakdown.ATTRIBUTION_CELLS,
            scale, executor)))

    def fig_21() -> None:
        add("Fig. 21", occupancy.format_fig21(grid.run_grid(
            occupancy.DEFAULT_WORKLOADS, occupancy.OCCUPANCY_CELLS,
            scale, executor)))

    def fig_22() -> None:
        add("Fig. 22", adaptivity.format_fig22(grid.run_grid(
            adaptivity.WORKLOADS, adaptivity.cells, scale, executor)[0]))

    def figs_23_24() -> None:
        records = {
            at: grid.run_grid(scaling.WORKLOADS, scaling.records_cells(),
                              at, executor)[0]
            for at in scaling.RECORD_SCALES
        }
        add("Fig. 23a", scaling.format_fig23a(records))
        add("Fig. 23b", scaling.format_fig23b(grid.run_grid(
            scaling.WORKLOADS, scaling.depth_cells(), scaling.DEPTH_SCALE,
            executor)[0]))
        add("Fig. 24", sweep.format_fig24(grid.run_grid(
            sweep.DEFAULT_WORKLOADS, sweep.design_cells(), scale, executor)))

    def table_3() -> None:
        add("Table 3", claims.format_paper_values(scale, executor=executor))
        if collect_json is not None:
            collect_json["table3"] = table3_payload(
                grid.run_grid(scale=scale, executor=executor))

    if collect_json is not None:
        collect_json["scale"] = scale
    try:
        guarded(figs_15_17)
        guarded(figs_18_19_25)
        guarded(fig_20)
        if not fast:
            guarded(attribution)
        guarded(fig_21)
        guarded(fig_22)
        if not fast:
            guarded(figs_23_24)
        guarded(table_3)
    finally:
        if own_executor:
            executor.close()

    elapsed = time.time() - started
    sections.append(executor.stats.summary(executor.jobs))
    sections.append(f"Report generated in {elapsed:.1f}s at scale {scale}.\n")
    return "\n".join(sections)


def table3_payload(results: list[grid.GridRow]) -> dict:
    """Table 3's headline geomeans over the Fig. 18 grid, for the JSON
    export and the baseline gate: METAL's speedup and DRAM-energy
    advantage, METAL-IX's speedup (the IX-cache alone), and the range of
    METAL's gain over METAL-IX (patterns)."""
    bases = ("stream", "address", "xcache")
    energy_ratios: dict[str, list[float]] = {base: [] for base in bases}
    ix_only: dict[str, list[float]] = {base: [] for base in bases}
    pattern_gains = []
    for result in results:
        metal_e = result.runs["metal"].dram_energy_fj or 1.0
        ix_span = result.runs["metal_ix"].makespan
        pattern_gains.append(ix_span / max(1, result.runs["metal"].makespan))
        for base in bases:
            energy_ratios[base].append(result.runs[base].dram_energy_fj / metal_e)
            ix_only[base].append(result.runs[base].makespan / max(1, ix_span))
    return {
        "speedup": speedup_mod.headline_ratios(results),
        "energy": {k: geomean(v) for k, v in energy_ratios.items()},
        "ix_only": {k: geomean(v) for k, v in ix_only.items()},
        "pattern_gain": [min(pattern_gains), max(pattern_gains)],
    }


def extract_key_metrics(payload: dict) -> dict[str, float]:
    """Flatten a ``collect_json`` payload into baseline-worthy metrics.

    Speedups and ratios rather than raw makespans: ratios are what the
    paper reports and they stay meaningful across deliberate retimings
    of a single component.
    """
    metrics: dict[str, float] = {}
    for workload, runs in sorted((payload.get("fig18") or {}).items()):
        base = runs.get("stream")
        base_makespan = base["makespan"] if base else 0
        for system, run in sorted(runs.items()):
            if base_makespan:
                metrics[f"fig18.{workload}.{system}.speedup"] = (
                    base_makespan / max(1, run["makespan"])
                )
            metrics[f"fig18.{workload}.{system}.miss_rate"] = run["miss_rate"]
            metrics[f"fig18.{workload}.{system}.working_set"] = (
                run["working_set_fraction"]
            )
    for name, value in sorted((payload.get("headline") or {}).items()):
        metrics[f"headline.{name}"] = float(value)
    table3 = payload.get("table3") or {}
    for group in ("speedup", "energy", "ix_only"):
        for name, value in sorted((table3.get(group) or {}).items()):
            metrics[f"table3.{group}.{name}"] = float(value)
    for i, value in enumerate(table3.get("pattern_gain") or ()):
        metrics[f"table3.pattern_gain.{i}"] = float(value)
    return metrics


#: Baseline file schema version (bump on incompatible layout changes).
BASELINE_SCHEMA = 1


def baseline_document(payload: dict) -> dict:
    """The ``BENCH_baseline.json`` document for one report payload."""
    return {
        "schema": BASELINE_SCHEMA,
        "scale": payload.get("scale"),
        "rtol": gate.DEFAULT_RTOL,
        "metrics": extract_key_metrics(payload),
    }


GATE = gate.Rules(
    flatten=lambda doc: {"scale": doc.get("scale"), **doc.get("metrics", {})},
    config=("scale",),
)


def trace_overhead_check(
    scale: float = 0.1, workload_name: str = "scan", system: str = "metal"
) -> tuple[str, list[str]]:
    """Measure the observability layer's cost on one (workload, system).

    Runs the same simulation with tracing off and on, checks the
    aggregate numbers are identical (instrumentation must not perturb the
    model), and reports the wall-clock overhead plus the counter snapshot
    of the traced run. Returns the report text and the list of problems.
    """
    from dataclasses import replace

    from repro.bench.format import render_table
    from repro.bench.runner import build_memsys
    from repro.sim.metrics import simulate

    workload = build_workload(workload_name, scale=scale)
    timings: dict[bool, float] = {}
    results = {}
    for trace in (False, True):
        sim = replace(workload.config.sim_params(), trace=trace)
        memsys = build_memsys(system, workload, sim=sim)
        started = time.perf_counter()
        # record_latencies=True in both modes so the latency/depth
        # histograms exist on both sides of the byte-identity check.
        results[trace] = simulate(
            memsys, workload.requests, sim, workload.total_index_blocks,
            record_latencies=True, walks=workload.walks,
        )
        timings[trace] = time.perf_counter() - started
    off, on = results[False], results[True]
    problems = [
        f"tracing perturbed {attr}: off={getattr(off, attr)} "
        f"on={getattr(on, attr)}"
        for attr in ("makespan", "num_walks", "total_walk_cycles",
                     "short_circuited", "index_dram_accesses")
        if getattr(off, attr) != getattr(on, attr)
    ]
    on_dict = dict(on.to_dict())
    on_dict.pop("counters", None)  # tracing-only by construction
    off_json = json.dumps(off.to_dict(), sort_keys=True)
    on_json = json.dumps(on_dict, sort_keys=True)
    if off_json != on_json:
        problems.append(
            "tracing perturbed the to_dict() summary (counters aside):\n"
            f"off: {off_json}\non:  {on_json}")
    assert on.tracer is not None and on.counters is not None
    overhead = (timings[True] - timings[False]) / max(timings[False], 1e-9)
    verdict = ("aggregates identical with tracing on/off (to_dict "
               "byte-identical, counters aside)" if not problems
               else "AGGREGATES DIFFER with tracing on/off")
    rows = [[name, value] for name, value in on.counters.items()
            if name.startswith(("events.", "cache.", "dram.", "engine."))]
    return "\n".join([
        f"{workload.name} / {system}: {verdict}; wall-clock overhead "
        f"{overhead * 100:+.1f}% "
        f"({timings[False]:.3f}s -> {timings[True]:.3f}s)",
        f"{len(on.tracer)} events buffered, {on.tracer.dropped} dropped",
        render_table(["counter", "value"], rows, "Counter snapshot"),
    ]), problems


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=positive_float, default=0.25,
                        help="workload scale factor (1.0 = repo default sizes)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report to this file as well as stdout")
    parser.add_argument("--json", type=str, default=None,
                        help="write machine-readable figure data to this file")
    parser.add_argument("--fast", action="store_true",
                        help="skip the slow Fig. 23/24 sweeps")
    add_jobs(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the on-disk result cache and recompute "
                             "every cell")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="result cache root (default: $REPRO_CACHE_DIR "
                             "or .repro_cache)")
    parser.add_argument("--verify-trace-overhead", action="store_true",
                        help="only check the observability layer: identical "
                             "aggregates with tracing on/off + overhead %%, "
                             "and the serving span check against the "
                             "result digest in the committed "
                             "BENCH_serve_result.json golden")
    gate.add_arguments(parser, "BENCH_baseline.json")


def run(args: argparse.Namespace) -> int:
    if args.verify_trace_overhead:
        from repro.bench import serve

        failed = False
        for title, check in (
                ("TRACE OVERHEAD CHECK FAILED",
                 lambda: trace_overhead_check(scale=args.scale)),
                ("SPAN OVERHEAD CHECK FAILED", serve.trace_overhead_check)):
            text, problems = check()
            print(text)
            failed |= report_problems(title, problems)
        return 1 if failed else 0
    gate.validate(args)
    payload: dict = {}
    store = None
    if not args.no_cache:
        store = ResultStore(root=args.cache_dir)
        store.prune_stale()
    with Executor(jobs=args.jobs, store=store) as executor:
        report = generate_report(scale=args.scale, fast=args.fast,
                                 collect_json=payload, executor=executor)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2)
    return gate.finish(args, baseline_document(payload), GATE)
