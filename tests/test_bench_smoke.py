"""Smoke tests: every experiment's cells/format_* pipeline at tiny scale.

The paper's claims are checked at the scales they are stated for
(``tests/test_claims.py``); at smoke scale the cache/working-set ratios
invert and those claims are meaningless. What must hold at any scale is
that each experiment completes and renders well-formed rows.
"""

import functools

import pytest

from repro.bench import (
    ablation,
    adaptivity,
    breakdown,
    chaos,
    dynamic,
    energy,
    grid,
    occupancy,
    scale_sweep,
    scaling,
    sweep,
    tables,
    tagmatch,
    trends,
)
from repro.bench import serve as serve_mod
from repro.bench import speedup as speedup_mod
from repro.exec import get_workload
from repro.workloads.suite import WORKLOAD_BUILDERS

SCALE = 0.01


def assert_rows(text: str) -> None:
    """The formatted figure is a non-empty table: header plus data rows."""
    assert isinstance(text, str)
    lines = [line for line in text.splitlines() if line.strip()]
    assert len(lines) >= 2, f"no data rows in:\n{text}"


# Figs. 15-17 format one grid of the trend cells, Figs. 18, 19 and 25
# one grid of every system; each is run once per session.
@functools.cache
def _trends():
    return grid.run_grid(trends.DEFAULT_WORKLOADS, trends.TREND_CELLS,
                         scale=SCALE)


@functools.cache
def _systems():
    return grid.run_grid(scale=SCALE)


def _trend_figure(fmt):
    text = fmt(_trends())
    assert "Scan" in text
    return [text]


def _fig18():
    results = _systems()
    ratios = speedup_mod.headline_ratios(results)
    assert set(ratios) == {"stream", "address", "xcache", "metal_ix"}
    assert all(v > 0 for v in ratios.values())
    text = speedup_mod.format_fig18(results)
    assert "METAL speedup per workload" in text
    return [text]


def _fig20():
    results = grid.run_grid(breakdown.DEFAULT_WORKLOADS,
                            breakdown.BREAKDOWN_CELLS, scale=SCALE)
    assert results[0].workload == "scan"
    assert results[0].speedups()["metal_ix"] > 0
    text = breakdown.format_fig20(results)
    assert "IX only" in text
    return [text]


def _fig21():
    results = grid.run_grid(occupancy.DEFAULT_WORKLOADS,
                            occupancy.OCCUPANCY_CELLS, scale=SCALE)
    assert results[0].workload == "scan"
    assert "metal" in occupancy.by_level(results[0])
    text = occupancy.format_fig21(results)
    assert "L0" in text
    return [text]


def _fig22():
    row, = grid.run_grid(adaptivity.WORKLOADS, adaptivity.cells, scale=SCALE)
    assert adaptivity.windows(row)
    text = adaptivity.format_fig22(row)
    assert "window" in text
    return [text]


def _scaling():
    records = {SCALE: grid.run_grid(
        scaling.WORKLOADS, scaling.records_cells((4 * 1024,)), SCALE)[0]}
    depth, = grid.run_grid(scaling.WORKLOADS, scaling.depth_cells((6,)), SCALE)
    return [scaling.format_fig23a(records), scaling.format_fig23b(depth)]


def _ablation():
    def row(cells):
        return grid.run_grid(ablation.WORKLOADS, cells, SCALE)[0]

    return [
        ablation.format_geometry(row(ablation.geometry_cells((1, 4)))),
        ablation.format_shared_vs_private(
            row(ablation.shared_vs_private_cells)),
        ablation.format_toggles(row(ablation.TOGGLE_CELLS)),
        ablation.format_scheduling(row(ablation.SCHEDULING_CELLS)),
    ]


def _scale_sweep():
    # Tiny paper fractions (floors dominate the sizing); the trend
    # predicates are calibrated for the real CI fractions.
    points = scale_sweep.run_scale_sweep(points=(0.0001, 0.0005))
    for p in points:
        assert p.build_peak_bytes <= p.budget_bytes
        assert set(p.metrics) == set(scale_sweep.SYSTEMS)
    return [scale_sweep.format_sweep(points)]


def _serve():
    curve = serve_mod.run_serve_sweep(
        "scan", loads=(0.5, 1.3), scale=SCALE, duration_ms=2)
    assert all(p.completed == p.offered > 0 for p in curve.points)
    # The calibrated sweep keeps its physics at any scale: the past-
    # saturation point queues harder than the half-load point.
    assert curve.points[1].p99 >= curve.points[0].p99
    return [serve_mod.format_serve(curve)]


#: experiment -> its grid (or runner) at smoke scale, returning the
#: formatted tables.
EXPERIMENTS = {
    "fig07": lambda: [tagmatch.format_fig7(tagmatch.run_tagmatch())],
    "table2": lambda: [tables.format_table2(
        [get_workload(name, SCALE) for name in WORKLOAD_BUILDERS])],
    "fig15": lambda: _trend_figure(trends.format_fig15),
    "fig16": lambda: _trend_figure(trends.format_fig16),
    "fig17": lambda: _trend_figure(trends.format_fig17),
    "fig18": _fig18,
    "fig19": lambda: [energy.format_fig19(_systems())],
    "fig20": _fig20,
    "attribution": lambda: [breakdown.format_attribution(grid.run_grid(
        breakdown.ATTRIBUTION_WORKLOADS, breakdown.ATTRIBUTION_CELLS,
        scale=SCALE))],
    "fig21": _fig21,
    "fig22": _fig22,
    "fig23": _scaling,
    "fig24": lambda: [sweep.format_fig24(grid.run_grid(
        ("join",), sweep.design_cells(tiles=(4, 8), caches=(2 * 1024, 8 * 1024)),
        scale=SCALE))],
    "fig25": lambda: [energy.format_fig25(_systems())],
    "ablation": _ablation,
    "dynamic": lambda: [dynamic.format_dynamic_mix(
        dynamic.run_dynamic_mix(num_records=400, num_ops=300))],
    "chaos": lambda: [chaos.format_chaos(
        chaos.run_chaos("scan", rates=(0.0, 0.05), scale=SCALE))],
    "scale_sweep": _scale_sweep,
    "serve": _serve,
}


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_experiment_runs_and_formats(experiment):
    for table in EXPERIMENTS[experiment]():
        assert_rows(table)


def test_serve_least_loaded_beats_round_robin_on_skew():
    """With half the fleet running at quarter speed, a backlog-aware
    balancer must not lose to blind round-robin on tail latency."""
    kwargs = dict(loads=(0.6,), scale=SCALE, duration_ms=2,
                  tile_speedups=(1.0, 0.25, 1.0, 0.25))
    rr = serve_mod.run_serve_sweep("scan", balancer="round_robin", **kwargs)
    ll = serve_mod.run_serve_sweep("scan", balancer="least_loaded", **kwargs)
    assert ll.points[0].p99 <= rr.points[0].p99


def test_serve_cli_end_to_end(capsys):
    """`python -m repro serve` at smoke scale: runs, prints the curve."""
    from repro.cli import main

    rc = main(["serve", "scan", "--scale", "0.01", "--duration-ms", "2",
               "--loads", "0.5,1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Saturation curve" in out
    assert_rows(out)


def test_report_cli_verify_trace_overhead(capsys):
    """`python -m repro report` takes the module's own options, so the
    trace-overhead check is reachable from the CLI too."""
    from repro.cli import main

    rc = main(["report", "--verify-trace-overhead", "--scale", "0.01"])
    assert rc == 0
    assert "aggregates identical with tracing on/off" in capsys.readouterr().out
