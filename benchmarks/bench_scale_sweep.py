"""Paper-scale sweep — streamed keygen + SoA storage up to 10M keys.

The full sweep (``python -m repro scale --baseline
--write-baseline``) commits BENCH_scale.json with the 1x point; the
benchmark run keeps to the CI fractions so it stays push-cheap while
exercising the identical path: tracemalloc-gated SoA build, fixed walk
prefix, stream-vs-METAL trend predicates, and the gate against the
committed baseline.
"""

import argparse

from conftest import run_once

from repro import gate
from repro.bench.scale_sweep import (
    CI_POINTS,
    DEFAULT_BASELINE,
    GATE,
    check_trends,
    covered_by,
    format_sweep,
    run_scale_sweep,
    sweep_to_baseline,
)


def test_scale_sweep_ci_points(benchmark):
    points = run_once(benchmark, run_scale_sweep, points=CI_POINTS)
    print()
    print(format_sweep(points))
    assert check_trends(points) == []
    args = argparse.Namespace(baseline=DEFAULT_BASELINE, write_baseline=False)
    assert gate.finish(args, sweep_to_baseline(points), GATE,
                       covered=covered_by(points)) == 0
    baseline = gate.load(DEFAULT_BASELINE)
    # The committed full sweep carries the paper-scale point and its
    # trends: 10M records built inside the declared budget, speedup
    # floor held from 0.01x through 1x.
    fracs = [p["frac"] for p in baseline["points"]]
    assert 1.0 in fracs and min(fracs) <= 0.01
    for p in baseline["points"]:
        assert p["build_peak_bytes"] <= p["budget_bytes"]
        assert p["speedup"] >= baseline["min_speedup"]
