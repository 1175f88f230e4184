"""Fig. 16 — working set: fraction of index walk traffic served by DRAM."""

from conftest import run_once

from repro.bench.trends import format_fig16, run_trends


def test_fig16_working_set(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_trends, scale=bench_scale
    )
    print()
    print(format_fig16(results))
    for trend in results:
        ws = trend.working_sets()
        # Observation 4: METAL short-circuits more walks than X-cache,
        # reducing the working set.
        assert ws["metal"] < ws["xcache"]
        # Streaming by definition pulls all of it from DRAM.
        assert ws["stream"] > 0.99
