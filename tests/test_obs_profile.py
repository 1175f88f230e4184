"""Profiler correctness: exact attribution, reconciliation, series.

The load-bearing invariant of the profiling layer is *exactness*: per
walk, the six attribution components sum to the measured walk latency,
and the summed spans reconcile with the RunResult aggregates, cycle for
cycle. These tests pin that invariant across memory systems, plus the
offline series reconstruction (IX occupancy integrated from events must
equal the live cache's entry count) and the attribution cross-check in
bench/breakdown.py.
"""

from dataclasses import replace

import pytest

from repro.bench.runner import build_memsys
from repro.obs.profile import (
    ATTRIBUTION_CATEGORIES,
    build_profile,
    format_profile,
    reconcile,
)
from repro.obs.series import engine_series, gen_series
from repro.obs.tracer import Tracer
from repro.sim.metrics import simulate
from repro.workloads.suite import build_workload

SCALE = 0.03
WORKLOAD = "scan"


def traced_pair(kind: str, workload_name: str = WORKLOAD, scale: float = SCALE):
    """(RunResult, memsys) for one traced run — tests need both."""
    workload = build_workload(workload_name, scale=scale, seed=0)
    sim = replace(workload.config.sim_params(), trace=True)
    memsys = build_memsys(kind, workload, sim=sim)
    result = simulate(memsys, workload.requests, sim, workload.total_index_blocks)
    return result, memsys


@pytest.fixture(scope="module")
def metal_pair():
    return traced_pair("metal")


@pytest.fixture(scope="module")
def metal_profile(metal_pair):
    result, _ = metal_pair
    return build_profile(result.tracer)


class TestExactReconciliation:
    @pytest.mark.parametrize("kind", ["stream", "address", "xcache",
                                      "metal_ix", "metal"])
    def test_profile_reconciles_across_systems(self, kind):
        result, _ = traced_pair(kind)
        assert result.tracer.dropped == 0
        profile = build_profile(result.tracer)
        assert reconcile(profile, result) == []

    def test_every_span_fully_attributed(self, metal_profile):
        for span in metal_profile.spans:
            assert span.unattributed == 0, (
                f"walk {span.walk}: latency {span.latency} != "
                f"attributed {span.attributed} ({span.attribution})"
            )

    def test_totals_match_span_sums(self, metal_profile):
        for category in ATTRIBUTION_CATEGORIES:
            assert metal_profile.totals[category] == sum(
                span.attribution.get(category, 0)
                for span in metal_profile.spans
            )

    def test_fractions_sum_to_one(self, metal_profile):
        assert sum(metal_profile.fractions().values()) == pytest.approx(1.0)

    def test_spans_ordered_and_bounded(self, metal_pair, metal_profile):
        result, _ = metal_pair
        walks = [span.walk for span in metal_profile.spans]
        assert walks == sorted(walks)
        assert metal_profile.makespan == result.makespan
        for span in metal_profile.spans:
            assert span.end - span.start == span.latency
            assert 0 <= span.start <= span.end <= result.makespan

    def test_stream_has_no_probe_cycles(self):
        # The streaming DSA has no cache: nothing to probe, everything
        # from DRAM.
        result, _ = traced_pair("stream")
        profile = build_profile(result.tracer)
        assert profile.totals["probe"] == 0
        assert profile.totals["dram_hit"] + profile.totals["dram_miss"] > 0

    def test_metal_shifts_cycles_from_dram_to_probe(self, metal_profile):
        stream_result, _ = traced_pair("stream")
        stream = build_profile(stream_result.tracer)
        dram = ("dram_queue", "dram_hit", "dram_miss")
        metal_dram = sum(metal_profile.totals[c] for c in dram)
        stream_dram = sum(stream.totals[c] for c in dram)
        assert metal_dram < stream_dram
        assert metal_profile.totals["probe"] > 0

    def test_strict_rejects_dropped_events(self):
        workload = build_workload(WORKLOAD, scale=SCALE, seed=0)
        sim = replace(workload.config.sim_params(), trace=True,
                      trace_buffer=64)
        memsys = build_memsys("metal", workload, sim=sim)
        result = simulate(memsys, workload.requests, sim,
                          workload.total_index_blocks)
        assert result.tracer.dropped > 0
        with pytest.raises(ValueError, match="dropped"):
            build_profile(result.tracer)
        # strict=False still builds (approximate) spans.
        build_profile(result.tracer, strict=False)

    def test_prefetches_never_attributed_to_walks(self):
        # address_pf issues next-line prefetches tagged walk=-1: they
        # must not inflate any walk's DRAM attribution, and the profile
        # must still reconcile exactly.
        result, _ = traced_pair("address_pf")
        prefetch_events = [e for e in result.tracer.events("dram_access")
                           if e.walk < 0]
        assert prefetch_events, "expected walk=-1 prefetch DRAM accesses"
        profile = build_profile(result.tracer)
        assert reconcile(profile, result) == []


class TestProfileOutputs:
    def test_to_dict_shape(self, metal_profile):
        d = metal_profile.to_dict()
        assert d["num_walks"] == metal_profile.num_walks
        assert set(d["attribution"]) == set(ATTRIBUTION_CATEGORIES)
        assert d["latency"]["count"] == metal_profile.num_walks
        assert sum(d["attribution"].values()) == d["total_walk_cycles"]

    def test_format_profile_renders(self, metal_profile):
        text = format_profile(metal_profile)
        assert "DRAM row-buffer miss" in text
        assert "p99" in text
        assert "100.0%" in text

    def test_latency_histogram_matches_run(self, metal_pair, metal_profile):
        result, _ = metal_pair
        hist = metal_profile.latency_histogram()
        assert hist.count == result.num_walks
        assert hist.total == result.total_walk_cycles
        assert hist.max == max(result.walk_latencies)


class TestGenSeries:
    def test_occupancy_matches_live_cache(self, metal_pair):
        # The integrated (inserts - evicts) reconstruction must land
        # exactly on the cache's live entry count at end of run.
        result, memsys = metal_pair
        series = gen_series(result.tracer)
        assert series.column("ix_resident")[-1] == len(memsys.cache)

    def test_occupancy_never_negative_and_bounded(self, metal_pair):
        result, memsys = metal_pair
        series = gen_series(result.tracer)
        capacity = memsys.cache.capacity_entries
        for resident in series.column("ix_resident"):
            assert 0 <= resident <= capacity

    def test_window_counts_sum_to_event_counts(self, metal_pair):
        result, _ = metal_pair
        series = gen_series(result.tracer, walk_interval=32)
        counts = result.tracer.counts
        assert sum(series.column("probes")) == counts.get("ix_probe", 0)
        assert sum(series.column("ix_evictions")) == counts.get("ix_evict", 0)
        assert sum(series.column("short_circuits")) == counts.get(
            "ix_short_circuit", 0)

    def test_walk_column_covers_run(self, metal_pair):
        result, _ = metal_pair
        series = gen_series(result.tracer, walk_interval=64)
        walks = series.column("walk")
        assert walks == sorted(walks)
        assert walks[-1] == result.num_walks - 1

    def test_rates_bounded(self, metal_pair):
        result, _ = metal_pair
        series = gen_series(result.tracer)
        for rate in series.column("hit_rate"):
            assert 0.0 <= rate <= 1.0
        for rate in series.column("short_circuit_rate"):
            assert 0.0 <= rate <= 1.0


class TestEngineSeries:
    def test_dram_counts_reconcile_with_stats(self, metal_pair):
        result, _ = metal_pair
        series = engine_series(result.tracer, makespan=result.makespan)
        assert sum(series.column("dram_accesses")) == result.dram.accesses
        assert sum(series.column("row_hits")) == result.dram.row_hits
        assert sum(series.column("row_misses")) == result.dram.row_misses

    def test_bandwidth_is_bytes_over_interval(self, metal_pair):
        result, _ = metal_pair
        series = engine_series(result.tracer, cycle_interval=100)
        for row in series.to_dicts():
            assert row["bandwidth_bytes_per_cycle"] == pytest.approx(
                row["bytes"] / 100)

    def test_cycle_column_within_makespan(self, metal_pair):
        result, _ = metal_pair
        series = engine_series(result.tracer, makespan=result.makespan)
        cycles = series.column("cycle")
        assert cycles == sorted(cycles)
        assert all(0 <= c <= result.makespan for c in cycles)


class TestSeriesContainer:
    def test_csv_round_trip(self, tmp_path):
        from repro.obs.series import Series

        series = Series("t", ["a", "b"], [[1, 0.5], [2, 1.0 / 3.0]])
        path = tmp_path / "s.csv"
        series.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert len(lines) == 3

    def test_empty_tracer_gives_empty_series(self):
        tracer = Tracer(capacity=16)
        assert len(gen_series(tracer)) == 0
        assert len(engine_series(tracer)) == 0


class TestBenchAttributionCrossCheck:
    def test_run_attribution_exact_and_ranked(self):
        # The bench-level cross-check: attribution totals equal walk
        # cycles (exactness survives the bench plumbing), and the DRAM
        # share shrinks going stream -> metal, which is *why* Fig. 20's
        # factors deliver speedup.
        from repro.bench.breakdown import ATTRIBUTION_CELLS
        from repro.bench.grid import run_grid

        row, = run_grid(("scan",), ATTRIBUTION_CELLS, scale=SCALE)
        assert list(row.runs) == ["stream", "metal"]
        totals = {}
        for system, run in row.runs.items():
            attribution = row.extras[system]["attribution"]
            assert attribution["dropped"] == 0
            totals[system] = attribution["totals"]
            assert sum(totals[system].values()) == run.total_walk_cycles
        dram = ("dram_queue", "dram_hit", "dram_miss")
        metal_cycles = sum(totals["metal"][c] for c in dram)
        stream_cycles = sum(totals["stream"][c] for c in dram)
        assert metal_cycles < stream_cycles
        # streaming DSA is DRAM-bound
        assert stream_cycles / row.runs["stream"].total_walk_cycles > 0.5

    def test_format_attribution_renders(self):
        from types import SimpleNamespace

        from repro.bench.breakdown import format_attribution
        from repro.bench.grid import GridRow

        text = format_attribution([GridRow(
            "scan", runs={"metal": SimpleNamespace(total_walk_cycles=100)},
            extras={"metal": {"attribution": {
                "totals": {c: 0 for c in ATTRIBUTION_CATEGORIES},
                "dropped": 0}}},
        )])
        assert "dram_miss %" in text
        assert "metal" in text
