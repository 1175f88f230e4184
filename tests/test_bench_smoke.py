"""Smoke tests: every ``benchmarks/bench_*.py`` target at tiny scale.

The pytest bench files under ``benchmarks/`` assert *paper trends*
(speedup orderings, miss-rate gaps) that are calibrated for the default
``REPRO_BENCH_SCALE``; at smoke scale the cache/working-set ratios invert
and those assertions are meaningless. What must hold at any scale is that
each target's run_*/format_* pipeline completes and emits well-formed
rows. Every test here drives the same ``repro.bench`` entry points its
bench file drives, at scale 0.01, and the completeness guard fails if a
new ``bench_*.py`` lands without a smoke entry.
"""

from pathlib import Path

import pytest

from repro.bench import (
    ablation,
    adaptivity,
    breakdown,
    dynamic,
    energy,
    occupancy,
    scale_sensitivity,
    scaling,
    seeds,
    sweep,
    tables,
    tagmatch,
    trends,
)
from repro.bench import speedup as speedup_mod
from repro.bench import summary as summary_mod
from repro.exec import get_workload
from repro.workloads.suite import WORKLOAD_BUILDERS

SCALE = 0.01
BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: bench-file stem -> smoke test function (filled by @smokes).
SMOKE_TARGETS: dict[str, object] = {}


def smokes(target: str):
    """Mark a test as the smoke entry for one ``benchmarks/<target>.py``."""

    def deco(fn):
        SMOKE_TARGETS[target] = fn
        return fn

    return deco


def assert_rows(text: str) -> None:
    """The formatted figure is a non-empty table: header plus data rows."""
    assert isinstance(text, str)
    lines = [line for line in text.splitlines() if line.strip()]
    assert len(lines) >= 2, f"no data rows in:\n{text}"


@pytest.fixture(scope="module")
def trend_results():
    return trends.run_trends(scale=SCALE)


@pytest.fixture(scope="module")
def energy_results():
    return energy.run_energy(scale=SCALE)


@smokes("bench_fig07_tagmatch")
def test_fig07_tagmatch():
    assert_rows(tagmatch.format_fig7(tagmatch.run_tagmatch()))


@smokes("bench_table2_workloads")
def test_table2_workloads():
    assert_rows(tables.format_table2(
        [get_workload(name, SCALE) for name in WORKLOAD_BUILDERS]))


@smokes("bench_fig15_missrate")
def test_fig15_missrate(trend_results):
    assert_rows(trends.format_fig15(trend_results))


@smokes("bench_fig16_workingset")
def test_fig16_workingset(trend_results):
    assert_rows(trends.format_fig16(trend_results))


@smokes("bench_fig17_walklatency")
def test_fig17_walklatency(trend_results):
    assert_rows(trends.format_fig17(trend_results))


@smokes("bench_fig18_speedup")
def test_fig18_speedup():
    results = speedup_mod.run_speedups(scale=SCALE)
    assert_rows(speedup_mod.format_fig18(results))


@smokes("bench_fig19_dram_energy")
def test_fig19_dram_energy(energy_results):
    assert_rows(energy.format_fig19(energy_results))


@smokes("bench_fig25_cache_energy")
def test_fig25_cache_energy(energy_results):
    assert_rows(energy.format_fig25(energy_results))


@smokes("bench_fig20_breakdown")
def test_fig20_breakdown():
    results = breakdown.run_breakdown(scale=SCALE)
    assert_rows(breakdown.format_fig20(results))


@smokes("bench_fig21_occupancy")
def test_fig21_occupancy():
    results = occupancy.run_occupancy(scale=SCALE)
    assert_rows(occupancy.format_fig21(results))


@smokes("bench_fig22_adaptivity")
def test_fig22_adaptivity():
    result = adaptivity.run_adaptivity(scale=SCALE)
    assert_rows(adaptivity.format_fig22(result))


@smokes("bench_fig23_scaling")
def test_fig23_scaling():
    cells = scaling.run_records_sweep(scales=(SCALE,), cache_sizes=(4 * 1024,))
    assert_rows(scaling.format_fig23a(cells))
    depth_cells = scaling.run_depth_sweep(depths=(6,), scale=SCALE)
    assert_rows(scaling.format_fig23b(depth_cells))


@smokes("bench_fig24_sweep")
def test_fig24_sweep():
    cells = sweep.run_sweep(
        workloads=("join",), tiles=(4, 8), caches=(2 * 1024, 8 * 1024),
        scale=SCALE,
    )
    assert_rows(sweep.format_fig24(cells))


@smokes("bench_robustness")
def test_robustness():
    result = seeds.run_seed_sweep("scan", seeds=(0, 1), scale=SCALE)
    assert_rows(seeds.format_seed_sweep(result))


@smokes("bench_scale_sensitivity")
def test_scale_sensitivity():
    points = scale_sensitivity.run_scale_sensitivity(
        "scan", scales=(SCALE, 2 * SCALE)
    )
    assert_rows(scale_sensitivity.format_scale_sensitivity(points, "scan"))


@smokes("bench_scale_sweep")
def test_scale_sweep():
    from repro.bench import scale_sweep

    # Tiny paper fractions (floors dominate the sizing); the trend
    # predicates are calibrated for the real CI fractions, so the smoke
    # only requires the pipeline to complete and render.
    points = scale_sweep.run_scale_sweep(points=(0.0001, 0.0005))
    assert_rows(scale_sweep.format_sweep(points))
    for p in points:
        assert p.build_peak_bytes <= p.budget_bytes
        assert set(p.metrics) == set(scale_sweep.SYSTEMS)


@smokes("bench_ext_dynamic")
def test_ext_dynamic():
    results = dynamic.run_dynamic_mix(num_records=400, num_ops=300)
    assert_rows(dynamic.format_dynamic_mix(results))


@smokes("bench_ablation")
def test_ablation():
    scan = dict(workload_name="scan", scale=SCALE)
    assert_rows(ablation.format_geometry(
        ablation.run_geometry_sweep(ways_options=(1, 4), **scan)))
    assert_rows(ablation.format_shared_vs_private(
        ablation.run_shared_vs_private(partitions=4, **scan)))
    assert_rows(ablation.format_toggles(
        ablation.run_mechanism_toggles(**scan)))
    assert_rows(ablation.format_scheduling(ablation.run_scheduling(**scan)))


@smokes("bench_table3_summary")
def test_table3_summary():
    assert_rows(summary_mod.format_table3(summary_mod.run_summary(scale=SCALE)))


@smokes("bench_chaos")
def test_chaos():
    from repro.bench import chaos

    curve = chaos.run_chaos("scan", rates=(0.0, 0.05), scale=SCALE)
    assert_rows(chaos.format_chaos(curve))
    assert not chaos.check_graceful(curve)


@smokes("bench_serve")
def test_serve():
    from repro.bench import serve as serve_mod

    curve = serve_mod.run_serve_sweep(
        "scan", loads=(0.5, 1.3), scale=SCALE, duration_ms=2)
    assert_rows(serve_mod.format_serve(curve))
    assert all(p.completed == p.offered > 0 for p in curve.points)
    # The calibrated sweep keeps its physics at any scale: the past-
    # saturation point queues harder than the half-load point.
    assert curve.points[1].p99 >= curve.points[0].p99


def test_serve_least_loaded_beats_round_robin_on_skew():
    """With half the fleet running at quarter speed, a backlog-aware
    balancer must not lose to blind round-robin on tail latency."""
    from repro.bench import serve as serve_mod

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


def test_every_bench_file_has_a_smoke_entry():
    bench_files = {path.stem for path in BENCH_DIR.glob("bench_*.py")}
    assert bench_files, "benchmarks/ directory went missing"
    missing = bench_files - set(SMOKE_TARGETS)
    assert not missing, (
        f"bench files without a smoke test: {sorted(missing)} — add a "
        f"@smokes(...) entry to tests/test_bench_smoke.py"
    )
    stale = set(SMOKE_TARGETS) - bench_files
    assert not stale, f"smoke entries for deleted bench files: {sorted(stale)}"
