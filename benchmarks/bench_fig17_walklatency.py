"""Fig. 17 — average walk latency across cache organizations."""

from conftest import run_once

from repro.bench.format import geomean
from repro.bench.trends import format_fig17, run_trends


def test_fig17_walk_latency(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_trends, scale=bench_scale
    )
    print()
    print(format_fig17(results))
    metal_vs_x = geomean([
        t.walk_latencies()["xcache"] / max(1e-9, t.walk_latencies()["metal"])
        for t in results
    ])
    metal_vs_fa = geomean([
        t.walk_latencies()["fa_opt"] / max(1e-9, t.walk_latencies()["metal"])
        for t in results
    ])
    print(f"\nMETAL walk-latency advantage: {metal_vs_x:.2f}x vs X-cache "
          f"(paper: 1.5x), {metal_vs_fa:.2f}x vs FA-OPT (paper: 1.8x)")
    # Observation 5's ordering: METAL's walks are faster than X-cache's.
    assert metal_vs_x > 1.2
