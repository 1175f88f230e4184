"""Fig. 25 — cache energy and on-chip energy breakdown."""

from conftest import run_once

from repro.bench.energy import format_fig25, run_energy


def test_fig25_cache_energy(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_energy, scale=bench_scale
    )
    print()
    print(format_fig25(results))
    for result in results:
        energy = result.cache_energy_fj()
        addr_acc = result.runs["address"].cache_stats.accesses
        metal_acc = result.runs["metal"].cache_stats.accesses
        # METAL probes once per walk; the address cache probes per level —
        # total accesses drop by far more than the 9/7 per-access premium.
        assert metal_acc < addr_acc
        assert energy["metal"] < energy["address"]
        # Breakdown fractions sum to ~1.
        breakdown = result.onchip_breakdown()
        assert abs(sum(breakdown.values()) - 1.0) < 1e-9
