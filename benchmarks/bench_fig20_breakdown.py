"""Fig. 20 — speedup breakdown: IX-cache / +patterns / +parameter tuning."""

from conftest import run_once

from repro.bench.breakdown import format_fig20, run_breakdown


def test_fig20_breakdown(benchmark, workloads, bench_scale):
    results = run_once(
        benchmark, run_breakdown, scale=bench_scale
    )
    print()
    print(format_fig20(results))
    for r in results:
        # The IX-cache alone improves over streaming...
        assert r.ix > 1.0
        # ...and the full system (patterns + params) does not lose to the
        # hardwired policy (small tolerance for simulation noise).
        assert r.params >= r.ix * 0.92, r.workload
