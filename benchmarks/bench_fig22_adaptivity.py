"""Fig. 22 — level-pattern adaptivity with parameter tuning over windows."""

from conftest import run_once

from repro.bench.adaptivity import format_fig22, run_adaptivity


def test_fig22_adaptivity(benchmark, workloads, bench_scale):
    result = run_once(
        benchmark, run_adaptivity, scale=bench_scale,
    )
    print()
    print(format_fig22(result))
    assert len(result.windows) >= 5
    # The cached frontier deepens once the cache warms: later windows
    # short-circuit from deeper levels than the first window.
    first = result.windows[0]["mean_start_level"]
    later = result.windows[-1]["mean_start_level"]
    assert later > first
