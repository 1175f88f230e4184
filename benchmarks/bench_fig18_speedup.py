"""Fig. 18 — speedup over streaming, address cache, and X-cache."""

from conftest import run_once

from repro.bench.speedup import format_fig18, headline_ratios, run_speedups


def test_fig18_speedup(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_speedups, scale=bench_scale
    )
    print()
    print(format_fig18(results))
    ratios = headline_ratios(results)
    # Shape: METAL wins against streaming and X-cache on geomean
    # (paper: 7.8x / 2.4x; compressed at reduced scale — see EXPERIMENTS.md).
    assert ratios["stream"] > 2.0
    assert ratios["xcache"] > 1.5
    assert ratios["address"] > 1.0
    # Shallow variants show much smaller advantage than their deep twins.
    by_name = {r.workload: r.speedups() for r in results}
    assert by_name["spmm"]["metal"] / by_name["spmm"]["xcache"] > 1.5
    assert by_name["sets"]["metal"] > by_name["sets_s"]["metal"]
