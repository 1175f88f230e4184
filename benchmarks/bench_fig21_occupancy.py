"""Fig. 21 — IX-cache occupancy by index level, METAL-IX vs METAL."""

from conftest import run_once

from repro.bench.occupancy import format_fig21, run_occupancy


def test_fig21_occupancy(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_occupancy, scale=bench_scale
    )
    print()
    print(format_fig21(results))
    by_name = {r.workload: r for r in results}
    # SpMM-S fibers are at most 3 levels, so occupancy stays in levels 0-2.
    spmm_s = by_name["spmm_s"]
    for occupancy in spmm_s.by_level.values():
        assert all(level <= 2 for level in occupancy)
    # Something must actually be cached everywhere.
    for result in results:
        for occupancy in result.by_level.values():
            assert sum(occupancy.values()) > 0
