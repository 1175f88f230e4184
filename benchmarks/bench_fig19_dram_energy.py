"""Fig. 19 — normalized DRAM dynamic energy."""

from conftest import run_once

from repro.bench.energy import format_fig19, run_energy
from repro.bench.format import geomean


def test_fig19_dram_energy(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_energy, scale=bench_scale
    )
    print()
    print(format_fig19(results))
    vs_stream = geomean([
        1.0 / max(1e-9, r.dram_normalized()["metal"]) for r in results
    ])
    vs_x = geomean([
        r.dram_normalized()["xcache"] / max(1e-9, r.dram_normalized()["metal"])
        for r in results
    ])
    print(f"\nMETAL DRAM-energy saving: {vs_stream:.2f}x vs stream "
          f"(paper: 1.9x), {vs_x:.2f}x vs X-cache (paper: 1.6x)")
    assert vs_stream > 1.5
    assert vs_x > 1.2
    for result in results:
        # METAL never consumes more DRAM energy than streaming.
        assert result.dram_normalized()["metal"] <= 1.0
