"""Ablations of METAL's design choices (DESIGN.md supplemental axes)."""

from conftest import run_once

from repro.bench.ablation import (
    format_geometry,
    format_shared_vs_private,
    format_toggles,
    run_geometry_sweep,
    run_mechanism_toggles,
    run_shared_vs_private,
)


def test_ablation_geometry(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_geometry_sweep, "scan",
        ways_options=(1, 4, 16), scale=bench_scale,
    )
    print()
    print(format_geometry(results))
    # Paper supplemental: 16-way is the sweet spot; direct-mapped loses.
    assert results[16].makespan <= results[1].makespan * 1.02


def test_ablation_shared_vs_private(benchmark, workloads, bench_scale):
    result = run_once(
        benchmark, run_shared_vs_private, "scan", partitions=4,
        scale=bench_scale,
    )
    print()
    print(format_shared_vs_private(result))
    # Paper supplemental: "Shared is best since access every 70-180 cycles".
    assert result.shared.cache_stats.hit_rate >= result.private_hit_rate


def test_ablation_mechanisms(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_mechanism_toggles, "scan", scale=bench_scale
    )
    print()
    print(format_toggles(results))
    by_label = {r.label: r.run for r in results}
    # Next-line prefetching cannot predict data-dependent child pointers:
    # it only adds traffic on index walks.
    assert (by_label["address + prefetch"].dram.accesses
            > by_label["address"].dram.accesses)


def test_ablation_scheduling(benchmark, workloads, bench_scale):
    from repro.bench.ablation import format_scheduling, run_scheduling

    results = run_once(benchmark, run_scheduling, "scan", scale=bench_scale)
    print()
    print(format_scheduling(results))
    # Key-adjacent issue shares index paths: traffic never increases.
    assert (results["key_sorted"].index_dram_accesses
            <= results["fifo"].index_dram_accesses)
