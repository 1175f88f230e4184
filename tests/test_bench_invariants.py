"""Reproduction invariants of four experiments: not paper claims (those
live in ``repro.bench.claims``) but properties the harness itself must
keep.

* chaos: the resilience curve degrades gracefully and its ledger accounts
  for every walk, at scale 0.01 (CI's ``chaos-smoke`` job runs that case
  alone) and at 0.15;
* dynamic mix: every system stays coherent on a mutating B+tree, and the
  IX-cache still beats streaming under churn;
* scale sweep: the CI paper fractions keep their trends and match the
  committed ``BENCH_scale.json``, whose 1x point sits inside its budget;
* serving: the calibrated saturation curve has the M/D/1 shape.
"""

import argparse

import pytest

from repro import gate
from repro.bench import chaos, dynamic, scale_sweep
from repro.bench import serve as serve_mod


@pytest.mark.parametrize("scale", [0.01, 0.15])
def test_chaos_resilience_curve(scale):
    curve = chaos.run_chaos("scan", system="metal", rates=chaos.DEFAULT_RATES,
                            scale=scale)
    problems = chaos.check_graceful(curve)
    assert not problems, problems
    # The fault-free anchor carries no ledger; every faulted point does,
    # with zero lost requests and a strictly positive injection count.
    assert curve.points[0].faults is None
    for point in curve.points[1:]:
        ledger = point.faults
        assert ledger is not None
        assert ledger["faults_injected"] > 0
        assert (
            ledger["walks_completed"] + ledger["walks_degraded"]
            == ledger["walks_total"]
            == point.num_walks
        )
    # Faults must actually hurt: the 10% point is measurably slower than
    # the fault-free anchor (else the hooks are not wired).
    assert curve.points[-1].makespan > curve.points[0].makespan


def test_dynamic_mix():
    results = dynamic.run_dynamic_mix(num_records=3_000, num_ops=2_500)
    by_name = {r.system: r for r in results}
    # Every system stays functionally coherent under churn...
    assert all(r.invalidations_survived for r in results)
    # ...and the IX-cache still beats streaming despite invalidations.
    assert by_name["metal_ix"].makespan < by_name["stream"].makespan


def test_scale_sweep_ci_points():
    points = scale_sweep.run_scale_sweep(points=scale_sweep.CI_POINTS)
    assert scale_sweep.check_trends(points) == []
    args = argparse.Namespace(baseline=scale_sweep.DEFAULT_BASELINE,
                              write_baseline=False)
    assert gate.finish(args, scale_sweep.sweep_to_baseline(points),
                       scale_sweep.GATE,
                       covered=scale_sweep.covered_by(points)) == 0
    baseline = gate.load(scale_sweep.DEFAULT_BASELINE)
    # The committed full sweep carries the paper-scale point and its
    # trends: 10M records built inside the declared budget, speedup
    # floor held from 0.01x through 1x.
    fracs = [p["frac"] for p in baseline["points"]]
    assert 1.0 in fracs and min(fracs) <= 0.01
    for p in baseline["points"]:
        assert p["build_peak_bytes"] <= p["budget_bytes"]
        assert p["speedup"] >= baseline["min_speedup"]


def test_serve_saturation_curve():
    loads = serve_mod.DEFAULT_LOADS
    curve = serve_mod.run_serve_sweep("scan", system="metal", loads=loads,
                                      scale=0.15, duration_ms=5)
    points = {p.load: p for p in curve.points}
    assert all(p.completed == p.offered > 0 for p in curve.points)

    # The calibrated sweep must find its knee at or just past load 1.0.
    knee = curve.knee()
    assert knee is not None, "sweep never saturated"
    assert knee >= 0.8, f"knee at load {knee:g} — calibration is off"

    # Past saturation the tail blows up relative to light load...
    lightest = curve.points[0]
    heaviest = curve.points[-1]
    assert heaviest.p99 > 10 * lightest.p99
    # ...but throughput stops growing: the last two points are within a
    # few percent of each other (the service ceiling), and well above
    # the light-load completion rate.
    ceiling = points[loads[-2]].throughput_rps
    assert abs(heaviest.throughput_rps - ceiling) < 0.1 * ceiling
    assert heaviest.throughput_rps > 1.5 * lightest.throughput_rps

    # Utilization ramps monotonically toward saturation.
    utils = [p.utilization for p in curve.points]
    assert all(b >= a - 0.02 for a, b in zip(utils, utils[1:]))
    assert heaviest.utilization > 0.9
    assert lightest.utilization < 0.5
