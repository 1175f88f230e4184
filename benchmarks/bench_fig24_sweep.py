"""Fig. 24 — design sweep over tile count and IX-cache size."""

from conftest import run_once

from repro.bench.sweep import format_fig24, pareto_point, run_sweep


def test_fig24_design_sweep(benchmark, workloads, bench_scale):
    cells = run_once(
        benchmark, run_sweep,
        workloads=("join", "spmm", "rtree"),
        tiles=(4, 8, 16),
        caches=(2 * 1024, 8 * 1024, 32 * 1024),
        scale=bench_scale,
    )
    print()
    print(format_fig24(cells))
    for name in ("join", "spmm", "rtree"):
        p = pareto_point(cells, name)
        print(f"Pareto {name}: {p.tiles} tiles, {p.cache_bytes // 1024}KB "
              f"-> {p.speedup:.2f}x ({p.region})")
    # More tiles at a fixed cache never slow the DSA down much, and the
    # sweep must contain at least two distinct limit regions.
    regions = {c.region for c in cells}
    assert len(regions) >= 2, regions
    by_key = {(c.workload, c.tiles, c.cache_bytes): c for c in cells}
    for name in ("join", "spmm"):
        low = by_key[(name, 4, 8 * 1024)].speedup
        high = by_key[(name, 16, 8 * 1024)].speedup
        assert high >= low * 0.95
