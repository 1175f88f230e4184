"""Smoke tests: every experiment's run_*/format_* pipeline at tiny scale.

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
SCAN = dict(workload_name="scan", scale=SCALE)


def assert_rows(text: str) -> None:
    """The formatted figure is a non-empty table: header plus data rows."""
    assert isinstance(text, str)
    lines = [line for line in text.splitlines() if line.strip()]
    assert len(lines) >= 2, f"no data rows in:\n{text}"


# Figs. 15-17 format one run_trends result, Figs. 19 and 25 one
# run_energy result; each is run once per session.
@functools.cache
def _trends():
    return trends.run_trends(scale=SCALE)


@functools.cache
def _energy():
    return energy.run_energy(scale=SCALE)


def _trend_figure(fmt):
    text = fmt(_trends())
    assert "Scan" in text
    return [text]


def _fig18():
    results = speedup_mod.run_speedups(scale=SCALE)
    ratios = speedup_mod.headline_ratios(results)
    assert set(ratios) == {"stream", "address", "xcache", "metal_ix"}
    assert all(v > 0 for v in ratios.values())
    text = speedup_mod.format_fig18(results)
    assert "METAL speedup per workload" in text
    return [text]


def _fig20():
    results = breakdown.run_breakdown(scale=SCALE)
    assert results[0].workload == "scan" and results[0].ix > 0
    text = breakdown.format_fig20(results)
    assert "IX only" in text
    return [text]


def _fig21():
    results = occupancy.run_occupancy(scale=SCALE)
    assert results[0].workload == "scan" and "metal" in results[0].by_level
    text = occupancy.format_fig21(results)
    assert "L0" in text
    return [text]


def _fig22():
    result = adaptivity.run_adaptivity(scale=SCALE)
    assert result.windows
    text = adaptivity.format_fig22(result)
    assert "window" in text
    return [text]


def _scaling():
    cells = scaling.run_records_sweep(scales=(SCALE,), cache_sizes=(4 * 1024,))
    depth_cells = scaling.run_depth_sweep(depths=(6,), scale=SCALE)
    return [scaling.format_fig23a(cells), scaling.format_fig23b(depth_cells)]


def _ablation():
    return [
        ablation.format_geometry(
            ablation.run_geometry_sweep(ways_options=(1, 4), **SCAN)),
        ablation.format_shared_vs_private(
            ablation.run_shared_vs_private(partitions=4, **SCAN)),
        ablation.format_toggles(ablation.run_mechanism_toggles(**SCAN)),
        ablation.format_scheduling(ablation.run_scheduling(**SCAN)),
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


#: experiment -> its run_* at smoke scale, returning the formatted tables.
EXPERIMENTS = {
    "fig07": lambda: [tagmatch.format_fig7(tagmatch.run_tagmatch())],
    "table2": lambda: [tables.format_table2(
        [get_workload(name, SCALE) for name in WORKLOAD_BUILDERS])],
    "fig15": lambda: _trend_figure(trends.format_fig15),
    "fig16": lambda: _trend_figure(trends.format_fig16),
    "fig17": lambda: _trend_figure(trends.format_fig17),
    "fig18": _fig18,
    "fig19": lambda: [energy.format_fig19(_energy())],
    "fig20": _fig20,
    "attribution": lambda: [breakdown.format_attribution(
        breakdown.run_attribution(scale=SCALE))],
    "fig21": _fig21,
    "fig22": _fig22,
    "fig23": _scaling,
    "fig24": lambda: [sweep.format_fig24(sweep.run_sweep(
        workloads=("join",), tiles=(4, 8), caches=(2 * 1024, 8 * 1024),
        scale=SCALE))],
    "fig25": lambda: [energy.format_fig25(_energy())],
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
