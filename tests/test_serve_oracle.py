"""Analytical oracle tests: the serving simulator vs queueing theory.

With a single tile stubbed to a deterministic service time and every
network/balancer cost zeroed, the serving topology *is* an M/D/1 queue:
Poisson arrivals (superposed user streams) at rate ``lambda``, constant
service ``D``, one FIFO server. Closed form (Pollaczek-Khinchine):

    rho = lambda * D
    Wq  = rho * D / (2 * (1 - rho))

No unit test of the simulator's internals can provide this guarantee:
matching the closed form within 5% simultaneously validates the
exponential arrival generator, the FIFO queue discipline, the busy-time
accounting, and the histogram mean — any systematic bias in any of them
shows up as a Wq error. The knee test pins the qualitative regime
change: past saturation (rho > 1) the backlog grows linearly with the
horizon and p99 blows up, which is exactly what the saturation sweep's
knee detector looks for.
"""

from __future__ import annotations

import math

import pytest

from repro.serve import ServeSpec, simulate_serve

#: Deterministic service time (ns) of the stubbed tile.
D = 2_000
#: Closed-form tolerance required by the acceptance bar.
TOLERANCE = 0.05


def _mdone_spec(rho: float, duration_ms: int, seed: int = 0,
                **overrides) -> ServeSpec:
    """Single deterministic tile, zero network: a pure M/D/1 queue.

    The aggregate arrival rate is rho/D, split evenly over 8 fixed
    users — the superposition of their exponential streams is exactly
    Poisson at the aggregate rate.
    """
    users = 8
    lam = rho / D  # requests per ns
    kwargs = dict(
        backend="fixed", service_ns=D, tiles=1, users=users,
        population="fixed", requests_per_min=lam * 60e9 / users,
        duration_ms=duration_ms, seed=seed,
        client_lb_ns=0, lb_service_ns=0, lb_tile_ns=0, tile_client_ns=0,
    )
    kwargs.update(overrides)
    return ServeSpec.make("scan", **kwargs)


@pytest.mark.parametrize("rho,duration_ms", [
    (0.2, 1_200),   # ~120k requests
    (0.5, 800),     # ~200k requests
    (0.8, 1_200),   # ~480k requests (high-rho variance needs the mass)
])
def test_mdone_mean_wait_and_utilization_match_closed_form(rho, duration_ms):
    result = simulate_serve(_mdone_spec(rho, duration_ms))
    assert result.offered == result.completed > 10_000

    wq_theory = rho * D / (2 * (1 - rho))
    wq_measured = result.tile_wait.mean  # histogram mean is an exact sum
    assert math.isclose(wq_measured, wq_theory, rel_tol=TOLERANCE), (
        f"rho={rho}: simulated mean wait {wq_measured:.1f}ns vs M/D/1 "
        f"closed form {wq_theory:.1f}ns"
    )
    assert math.isclose(result.utilization, rho, rel_tol=TOLERANCE), (
        f"rho={rho}: utilization {result.utilization:.4f} vs rho {rho}"
    )


def test_mdone_latency_decomposes_exactly():
    """With zero network, e2e = tile wait + service for every request,
    so the histogram totals decompose exactly (means follow)."""
    result = simulate_serve(_mdone_spec(0.5, 200))
    assert result.latency.total == result.tile_wait.total + result.service.total
    assert result.latency.count == result.tile_wait.count == result.service.count
    # Deterministic service: the service histogram is a spike at D.
    assert result.service.min == result.service.max == D


def test_mdone_waits_grow_with_rho():
    """Monotone sanity between the oracle points: heavier load, longer
    queues — and p50 wait stays below the mean (waits are right-skewed)."""
    waits = [simulate_serve(_mdone_spec(rho, 400)).tile_wait
             for rho in (0.2, 0.5, 0.8)]
    means = [w.mean for w in waits]
    assert means == sorted(means)
    for hist in waits:
        assert hist.percentile(50) <= hist.mean + 1


def test_p99_blows_up_past_the_knee():
    """Past saturation (rho > 1) the queue diverges: p99 end-to-end
    latency explodes relative to any sub-critical operating point, and
    throughput pins at the service ceiling."""
    below = simulate_serve(_mdone_spec(0.5, 150))
    past = simulate_serve(_mdone_spec(1.3, 150))
    assert past.latency.percentile(99) > 10 * below.latency.percentile(99)
    # Over-offered load cannot push throughput past 1/D.
    capacity_rps = 1e9 / D
    assert past.throughput_rps <= capacity_rps * 1.01
    assert past.throughput_rps > capacity_rps * 0.95
    # Sub-critical throughput tracks the offered rate instead.
    assert math.isclose(
        below.throughput_rps, 0.5 * capacity_rps, rel_tol=0.05)


def test_oracle_is_seed_stable_but_seed_sensitive():
    """The oracle numbers are properties of the distribution, not of one
    lucky stream: a different seed moves individual samples but stays
    within tolerance of the closed form."""
    a = simulate_serve(_mdone_spec(0.5, 800, seed=0))
    b = simulate_serve(_mdone_spec(0.5, 800, seed=1))
    assert a.tile_wait.total != b.tile_wait.total  # different streams...
    wq_theory = 0.5 * D / (2 * 0.5)
    for result in (a, b):  # ...same physics
        assert math.isclose(result.tile_wait.mean, wq_theory,
                            rel_tol=TOLERANCE)


def test_sweep_utilization_and_offered_grow_with_load():
    """Over a simulated-backend sweep, offered load up means more offered
    requests (strictly) and no less mean tile utilization: the monotone
    curve that reading a utilization bound off ``serve``'s table relies
    on."""
    from repro.bench.serve import run_serve_sweep
    from repro.exec import Executor

    loads = (0.1, 0.4, 0.8, 0.9, 1.05, 2.0)
    with Executor(jobs=1) as executor:
        curve = run_serve_sweep(
            "scan", system="metal", loads=loads, scale=0.02, users=8,
            tiles=2, duration_ms=3, executor=executor)
    utils = [p.utilization for p in curve.points]
    assert all(a <= b + 1e-9 for a, b in zip(utils, utils[1:]))
    offered = [p.offered for p in curve.points]
    assert all(a < b for a, b in zip(offered, offered[1:]))


def test_sweep_orders_loads_for_the_knee():
    """``run_serve_sweep`` sweeps its loads ascending and once each, so
    the knee is read against the lightest load whatever order the caller
    lists them in."""
    from repro.bench.serve import run_serve_sweep
    from repro.exec import Executor

    def sweep(loads):
        with Executor(jobs=1) as executor:
            return run_serve_sweep("scan", loads=loads, scale=0.01,
                                   duration_ms=1, executor=executor)

    ordered = sweep((0.2, 0.6, 1.3))
    shuffled = sweep((1.3, 0.2, 0.6, 0.2))
    assert [p.load for p in shuffled.points] == [0.2, 0.6, 1.3]
    assert shuffled.points == ordered.points
    assert shuffled.knee() == ordered.knee() == 1.3
