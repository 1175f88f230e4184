"""Property suite for the fault-injection layer's determinism contract.

Three guarantees, exercised with Hypothesis-driven plans on a small
fixed-seed workload:

* same seed + same ``FaultPlan`` => byte-identical faulted ``RunResult``
  (the schedule is a pure function of the plan);
* a plan whose every rate is zero is indistinguishable from no plan at
  all, whatever its penalty magnitudes;
* no request is ever lost: every injected fault is either retried to
  success or the walk completes through a degraded fallback and is
  counted (``walks_completed + walks_degraded == walks_total``).
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import build_memsys
from repro.faults import FaultInjector, FaultPlan
from repro.faults.inject import SITE_STORM, _mix
from repro.sim.metrics import simulate
from repro.workloads.suite import build_workload

SCALE = 0.01
WORKLOAD = "scan"

_WORKLOAD_CACHE = {}


def get_workload():
    if WORKLOAD not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[WORKLOAD] = build_workload(WORKLOAD, scale=SCALE)
    return _WORKLOAD_CACHE[WORKLOAD]


def run(plan, system: str = "metal"):
    workload = get_workload()
    sim = replace(workload.config.sim_params(), faults=plan)
    memsys = build_memsys(system, workload, sim=sim)
    return simulate(memsys, workload.requests, sim, workload.total_index_blocks)


RATES = st.sampled_from((0.005, 0.01, 0.03, 0.08, 0.15, 0.3))
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestMixer:
    """The counted-stream PRNG is a pure function into [0, 1)."""

    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, site=st.integers(1, SITE_STORM),
           n=st.integers(0, 2**20))
    def test_pure_and_in_unit_interval(self, seed, site, n):
        value = _mix(seed, site, n)
        assert value == _mix(seed, site, n)
        assert 0.0 <= value < 1.0

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 2**16))
    def test_sites_are_independent_streams(self, seed, n):
        draws = {_mix(seed, site, n) for site in range(1, SITE_STORM + 1)}
        assert len(draws) == SITE_STORM  # collisions are measure-zero


class TestDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(rate=RATES, plan_seed=SEEDS)
    def test_same_plan_same_result(self, rate, plan_seed):
        plan = FaultPlan.uniform(rate, seed=plan_seed)
        first = json.dumps(run(plan).to_dict(), sort_keys=True)
        second = json.dumps(run(plan).to_dict(), sort_keys=True)
        assert first == second

    def test_different_plan_seeds_differ(self):
        a = run(FaultPlan.uniform(0.1, seed=0)).to_dict()
        b = run(FaultPlan.uniform(0.1, seed=1)).to_dict()
        assert a["faults"] != b["faults"]

    @settings(max_examples=5, deadline=None)
    @given(
        spike=st.integers(0, 5000), stall=st.integers(0, 5000),
        burst=st.integers(0, 500), backoff=st.integers(0, 100),
        span=st.integers(0, 64), plan_seed=SEEDS,
    )
    def test_zero_rate_plan_equals_no_plan(
        self, spike, stall, burst, backoff, span, plan_seed
    ):
        plan = FaultPlan(
            seed=plan_seed, dram_spike_cycles=spike, bank_stall_cycles=stall,
            noc_burst_cycles=burst, walker_backoff_cycles=backoff,
            storm_span_blocks=span,
        )
        assert plan.is_empty
        with_plan = json.dumps(run(plan).to_dict(), sort_keys=True)
        without = json.dumps(run(None).to_dict(), sort_keys=True)
        assert with_plan == without


class TestNoLostRequests:
    @settings(max_examples=6, deadline=None)
    @given(
        rate=RATES,
        plan_seed=st.integers(0, 1000),
        retry_limit=st.integers(0, 3),
    )
    def test_every_walk_accounted(self, rate, plan_seed, retry_limit):
        plan = FaultPlan.uniform(
            rate, seed=plan_seed, walker_retry_limit=retry_limit
        )
        result = run(plan)
        ledger = result.faults
        assert ledger is not None
        assert (
            ledger["walks_completed"] + ledger["walks_degraded"]
            == ledger["walks_total"]
            == result.num_walks
        )
        # Degraded walks exist exactly when some step exhausted its budget,
        # and each exhausted step belongs to some (single) degraded walk.
        assert (ledger["walks_degraded"] > 0) == (ledger["retries_exhausted"] > 0)
        assert ledger["walks_degraded"] <= ledger["retries_exhausted"]
        # Every detected corruption was recovered by an invalidate+refetch.
        assert ledger["tag_refetches"] == ledger["tag_corruptions_injected"]

    def test_exhausted_retries_force_degraded_completion(self):
        """A hostile plan (retry budget 0, high fail rate) still finishes
        every walk — through the degraded fallback, visibly accounted."""
        plan = FaultPlan(seed=3, walker_fail_rate=0.5, walker_retry_limit=0)
        result = run(plan)
        ledger = result.faults
        assert ledger["retries_exhausted"] > 0
        assert ledger["walks_degraded"] > 0
        assert ledger["retries"] == 0  # budget was zero: no clean retries
        assert (
            ledger["walks_completed"] + ledger["walks_degraded"]
            == result.num_walks
        )


class TestPlanValidation:
    @settings(max_examples=50, deadline=None)
    @given(rate=st.floats(min_value=1.0001, max_value=100.0))
    def test_rates_above_one_rejected(self, rate):
        with pytest.raises(ValueError):
            FaultPlan(dram_spike_rate=rate)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(walker_fail_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(dram_spike_cycles=-1)

    @settings(max_examples=30, deadline=None)
    @given(rate=RATES, plan_seed=SEEDS)
    def test_items_roundtrip_preserves_digest(self, rate, plan_seed):
        plan = FaultPlan.uniform(rate, seed=plan_seed)
        assert FaultPlan(**dict(plan.items())).digest() == plan.digest()


class TestInjectorAccounting:
    @settings(max_examples=50, deadline=None)
    @given(rate=st.floats(0.0, 1.0), plan_seed=SEEDS,
           draws=st.integers(1, 200))
    def test_injected_cycles_match_counts(self, rate, plan_seed, draws):
        plan = FaultPlan(seed=plan_seed, dram_spike_rate=rate,
                         bank_stall_rate=rate)
        injector = FaultInjector(plan)
        for _ in range(draws):
            injector.dram_spike()
            injector.bank_stall()
        stats = injector.stats
        assert stats.injected_stall_cycles == (
            stats.dram_spikes_injected * plan.dram_spike_cycles
            + stats.bank_stalls_injected * plan.bank_stall_cycles
        )
        assert stats.faults_injected == (
            stats.dram_spikes_injected + stats.bank_stalls_injected
        )

    def test_walker_failures_bounded_by_retry_budget(self):
        plan = FaultPlan(seed=0, walker_fail_rate=1.0, walker_retry_limit=2)
        injector = FaultInjector(plan)
        # rate 1.0: every draw fails, so the count must stop at limit + 1.
        assert injector.walker_failures() == plan.walker_retry_limit + 1
