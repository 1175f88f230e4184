"""Fig. 15 — miss rate: METAL vs X-cache vs FA-OPT (+16x FA)."""

from conftest import run_once

from repro.bench.trends import format_fig15, run_trends


def test_fig15_miss_rate(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_trends, scale=bench_scale
    )
    print()
    print(format_fig15(results))
    for trend in results:
        rates = trend.miss_rates()
        # Observation 3: X-cache's leaf-only tagging misses most probes.
        assert rates["xcache"] > 0.3
        # The bigger FA cache can only lower the OPT miss rate.
        assert rates["fa_big"] <= rates["fa_opt"] + 1e-9
