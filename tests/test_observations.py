"""The paper's numbered observations (Section 5.1/5.2) as executable tests.

Each test names the observation it verifies; together they pin the
qualitative claims the reproduction must preserve regardless of scale.
"""

import pytest

from repro.bench.runner import compare_systems, run_workload
from repro.bench.trends import run_trends
from repro.workloads.suite import build_workload

SCALE = 0.12


@pytest.fixture(scope="module")
def trends():
    return run_trends(("scan", "join"), scale=SCALE)


class TestObservation1:
    """Address-caches are limited by working set; policy has less impact."""

    def test_opt_policy_does_not_rescue_the_organization(self, trends):
        for trend in trends:
            fa = trend.runs["fa_opt"]
            metal = trend.runs["metal"]
            # Even optimal replacement keeps pulling the index from DRAM
            # every walk (no short-circuit): its per-walk latency floor is
            # the serial probe chain + deep-level misses.
            assert fa.avg_walk_latency > metal.avg_walk_latency * 0.8
            assert fa.short_circuited == 0


class TestObservation2:
    """Miss rates can be misleading when comparing organizations."""

    def test_lower_miss_rate_does_not_imply_faster(self, trends):
        for trend in trends:
            fa = trend.runs["fa_opt"]
            metal_ix = trend.runs["metal_ix"]
            # METAL-IX's probe-level miss rate is near zero (the root
            # covers everything), FA-OPT's is real — yet FA-OPT's hit path
            # still walks every level.
            assert metal_ix.miss_rate < fa.miss_rate
            # And X-cache's high miss rate coexists with real speedup over
            # streaming on hit-friendly workloads (hit fully eliminates
            # the walk).
            x = trend.runs["xcache"]
            assert x.miss_rate > 0.5


class TestObservation3:
    """X-cache has high miss rate since the leaf working set is large."""

    def test_leaf_only_tagging_misses(self, trends):
        for trend in trends:
            assert 0.5 < trend.runs["xcache"].miss_rate <= 1.0

    def test_xcache_misses_pay_full_walks(self):
        wl = build_workload("scan", scale=SCALE)
        x = run_workload(wl, "xcache")
        height = wl.indexes[0].height
        misses = x.cache_stats.misses
        # Every miss re-walks root-to-leaf.
        assert x.nodes_visited == pytest.approx(misses * height, rel=0.05)


class TestObservation4:
    """METAL short-circuits more walks, reducing the working set."""

    def test_working_set_below_xcache(self, trends):
        for trend in trends:
            assert (trend.runs["metal"].working_set_fraction
                    < trend.runs["xcache"].working_set_fraction)

    def test_most_walks_short_circuit(self, trends):
        for trend in trends:
            metal = trend.runs["metal"]
            assert metal.short_circuited > metal.num_walks * 0.6


class TestObservation5:
    """METAL reduces walk latency vs X-cache (and holds vs FA-OPT)."""

    def test_latency_vs_xcache(self, trends):
        for trend in trends:
            ratio = (trend.runs["xcache"].avg_walk_latency
                     / trend.runs["metal"].avg_walk_latency)
            assert ratio > 1.3  # paper: 1.5x


class TestObservation6:
    """METAL shrinks the cache size requirement."""

    def test_small_metal_matches_bigger_address_cache(self):
        wl = build_workload("scan", scale=SCALE)
        small_metal = run_workload(wl, "metal", cache_bytes=4 * 1024)
        big_addr = run_workload(wl, "address", cache_bytes=16 * 1024)
        # A 4x smaller IX-cache stays within 40% of the address cache
        # (at paper scale it outright wins by 20%).
        assert small_metal.makespan < big_addr.makespan * 1.4


class TestSection52:
    """Headline performance relationships of the performance evaluation."""

    def test_reach_workloads_favor_metal_over_xcache(self):
        for name in ("scan", "join"):
            wl = build_workload(name, scale=SCALE)
            runs = compare_systems(wl, kinds=("xcache", "metal"))
            assert runs["metal"].makespan < runs["xcache"].makespan / 1.5

    def test_deep_beats_shallow_advantage(self):
        deep = compare_systems(build_workload("sets", scale=SCALE),
                               kinds=("xcache", "metal"))
        shallow = compare_systems(build_workload("sets_s", scale=SCALE),
                                  kinds=("xcache", "metal"))
        deep_ratio = deep["xcache"].makespan / deep["metal"].makespan
        shallow_ratio = shallow["xcache"].makespan / shallow["metal"].makespan
        assert deep_ratio > shallow_ratio
