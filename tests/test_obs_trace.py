"""Trace-anchored regression tests for the observability layer.

These assert *event-level* invariants on a tiny fixed-seed workload, so a
drift in EXPERIMENTS.md trends can be localized from the trace instead of
print-debugging the engine:

* every ``walk_end`` has a matching ``walk_start`` (same walk id),
* ``ix_short_circuit`` events only occur on IX-cache configurations,
* DRAM event counts equal ``DRAMStats`` access counts,
* counter snapshots reconcile exactly with ``RunResult`` aggregates,
* two identical runs export byte-identical JSONL and identical counters,
* the Chrome export is well-formed ``trace_event`` JSON.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.bench.runner import build_memsys
from repro.obs.export import to_chrome_trace, to_jsonl
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.metrics import simulate
from repro.workloads.suite import build_workload

SCALE = 0.03
WORKLOAD = "scan"


def traced_run(kind: str, workload=None, **sim_overrides):
    workload = workload or build_workload(WORKLOAD, scale=SCALE, seed=0)
    sim = replace(workload.config.sim_params(), trace=True, **sim_overrides)
    memsys = build_memsys(kind, workload, sim=sim)
    return simulate(memsys, workload.requests, sim, workload.total_index_blocks)


@pytest.fixture(scope="module")
def metal_run():
    return traced_run("metal")


@pytest.fixture(scope="module")
def xcache_run():
    return traced_run("xcache")


class TestWalkPairing:
    def test_every_walk_end_has_matching_start(self, metal_run):
        tracer = metal_run.tracer
        starts = Counter(e.walk for e in tracer.events("walk_start"))
        ends = Counter(e.walk for e in tracer.events("walk_end"))
        assert starts == ends
        assert all(count == 1 for count in starts.values())
        assert len(ends) == metal_run.num_walks

    def test_walk_end_after_start(self, metal_run):
        start_ts = {e.walk: e.ts for e in metal_run.tracer.events("walk_start")}
        for end in metal_run.tracer.events("walk_end"):
            assert end.ts >= start_ts[end.walk]
            assert end.args["latency"] == end.ts - start_ts[end.walk]

    def test_walk_ids_cover_every_request(self, metal_run):
        ends = {e.walk for e in metal_run.tracer.events("walk_end")}
        assert ends == set(range(metal_run.num_walks))


class TestShortCircuitProvenance:
    def test_metal_short_circuits_match_aggregate(self, metal_run):
        assert metal_run.short_circuited > 0
        events = metal_run.tracer.events("ix_short_circuit")
        assert len(events) == metal_run.short_circuited

    def test_short_circuit_only_on_ix_configurations(self, xcache_run):
        # The X-cache also short-circuits walks (full-hit fast path) but
        # has no IX-cache: an ix_short_circuit event from it would mean
        # instrumentation leaked across organizations.
        assert xcache_run.short_circuited > 0
        assert xcache_run.tracer.counts["ix_short_circuit"] == 0
        assert xcache_run.tracer.counts["ix_probe"] == 0

    def test_stream_emits_no_cache_events(self):
        run = traced_run("stream")
        cache_kinds = [k for k in run.tracer.counts
                       if k.startswith(("ix_", "xcache_", "addr_", "opt_"))]
        assert cache_kinds == []


class TestDramReconciliation:
    def test_dram_event_count_equals_stats(self, metal_run):
        assert metal_run.tracer.counts["dram_access"] == metal_run.dram.accesses

    def test_row_hit_split_matches_stats(self, metal_run):
        events = metal_run.tracer.events("dram_access")
        hits = sum(1 for e in events if e.args["row_hit"])
        assert hits == metal_run.dram.row_hits
        assert len(events) - hits == metal_run.dram.row_misses

    def test_every_system_reconciles(self):
        for kind in ("address", "address_pf", "fa_opt", "xcache", "metal_ix"):
            run = traced_run(kind)
            assert run.tracer.counts["dram_access"] == run.dram.accesses, kind

    @pytest.mark.parametrize("kind,event", [
        ("address", "addr_probe"), ("address_pf", "addr_probe"),
        ("fa_opt", "opt_probe"),
    ])
    def test_address_tagged_probe_events_match_stats(self, kind, event):
        # One probe event per cache access, each under the walk that
        # made it, with the hit flags the statistics count.
        run = traced_run(kind)
        stats = run.cache_stats
        events = run.tracer.events(event)
        assert len(events) == stats.accesses > 0
        assert sum(e.args["hit"] for e in events) == stats.hits
        assert run.counters[f"events.{event}"] == stats.accesses
        assert run.counters[f"cache.{kind}.misses"] == stats.misses
        walks = [e.walk for e in events]
        assert walks == sorted(walks)
        assert 0 <= walks[0] and walks[-1] < run.num_walks


class TestCounterReconciliation:
    def test_cache_counters_match_stats(self, metal_run):
        counters = metal_run.counters
        stats = metal_run.cache_stats
        assert counters["cache.metal.accesses"] == stats.accesses
        assert counters["cache.metal.hits"] == stats.hits
        assert counters["cache.metal.misses"] == stats.misses
        assert counters["cache.metal.insertions"] == stats.insertions
        assert counters["cache.metal.evictions"] == stats.evictions
        assert counters["cache.metal.bypasses"] == stats.bypasses

    def test_event_counters_match_stats(self, metal_run):
        counters = metal_run.counters
        stats = metal_run.cache_stats
        assert counters["events.ix_probe"] == stats.accesses
        assert counters["events.ix_hit"] == stats.hits
        assert counters["events.ix_insert"] == stats.insertions
        assert counters["events.ix_evict"] == stats.evictions
        assert counters["events.ix_bypass"] == stats.bypasses

    def test_engine_counters_match_run(self, metal_run):
        counters = metal_run.counters
        assert counters["engine.num_walks"] == metal_run.num_walks
        assert counters["engine.makespan"] == metal_run.makespan
        assert counters["events.walk_end"] == metal_run.num_walks
        assert counters["walks.short_circuited"] == metal_run.short_circuited

    def test_dram_counters_match_stats(self, metal_run):
        counters = metal_run.counters
        assert counters["dram.reads"] == metal_run.dram.reads
        assert counters["dram.writes"] == metal_run.dram.writes
        assert counters["dram.energy_fj"] == metal_run.dram.energy_fj

    def test_counters_flow_into_to_dict(self, metal_run):
        payload = metal_run.to_dict()
        assert payload["counters"]["dram.reads"] == metal_run.dram.reads


class TestDeterminism:
    @staticmethod
    def _digest(data: str) -> str:
        import hashlib

        return hashlib.sha256(data.encode()).hexdigest()

    def test_identical_runs_export_identical_traces(self):
        # Same workload object, fresh memory system per run: byte-identical
        # JSONL and identical counters. (Note: rebuilding the workload
        # allocates a fresh global index_id, which namespaces keys
        # differently — cross-process identity is covered below.)
        workload = build_workload(WORKLOAD, scale=SCALE, seed=0)
        first = traced_run("metal", workload=workload)
        second = traced_run("metal", workload=workload)
        assert self._digest(to_jsonl(first.tracer)) == \
            self._digest(to_jsonl(second.tracer))
        assert first.counters == second.counters

    def test_chrome_export_deterministic(self):
        workload = build_workload(WORKLOAD, scale=SCALE, seed=0)
        first = traced_run("metal_ix", workload=workload)
        second = traced_run("metal_ix", workload=workload)
        a = json.dumps(to_chrome_trace(first.tracer, first.counters), sort_keys=True)
        b = json.dumps(to_chrome_trace(second.tracer, second.counters), sort_keys=True)
        assert self._digest(a) == self._digest(b)

    def test_fresh_process_runs_are_byte_identical(self, tmp_path):
        # Two cold CLI invocations: catches dict-ordering and hash-seed
        # leaks that in-process reruns cannot (each subprocess gets its
        # own PYTHONHASHSEED).
        import os
        import subprocess
        import sys

        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            env = dict(os.environ)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            env.pop("PYTHONHASHSEED", None)
            subprocess.run(
                [sys.executable, "-m", "repro", "trace", WORKLOAD,
                 "--system", "metal", "--scale", "0.02", "--seed", "0",
                 "--out", str(tmp_path / (name + ".chrome.json")),
                 "--jsonl", str(path)],
                check=True, capture_output=True, cwd=os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))),
                env=env,
            )
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestChromeExport:
    def test_well_formed_trace_events(self, metal_run):
        payload = to_chrome_trace(metal_run.tracer, metal_run.counters)
        # Round-trips through JSON (no exotic types leaked into args).
        payload = json.loads(json.dumps(payload))
        assert isinstance(payload["traceEvents"], list)
        for record in payload["traceEvents"]:
            assert record["ph"] in ("B", "E", "X", "i", "M")
            assert "pid" in record and "tid" in record
            if record["ph"] != "M":
                assert isinstance(record["ts"], int)
            if record["ph"] == "X":
                assert record["dur"] >= 1

    def test_begin_end_balanced_per_track(self, metal_run):
        payload = to_chrome_trace(metal_run.tracer)
        depth: Counter = Counter()
        for record in payload["traceEvents"]:
            if record["ph"] == "B":
                depth[record["tid"]] += 1
            elif record["ph"] == "E":
                depth[record["tid"]] -= 1
                assert depth[record["tid"]] >= 0
        assert all(count == 0 for count in depth.values())

    def test_counters_embedded(self, metal_run):
        payload = to_chrome_trace(metal_run.tracer, metal_run.counters)
        assert payload["otherData"]["counters"] == metal_run.counters


class TestDisabledPath:
    def test_trace_off_produces_no_observability_state(self):
        workload = build_workload(WORKLOAD, scale=SCALE, seed=0)
        memsys = build_memsys("metal", workload)
        run = simulate(memsys, workload.requests,
                       total_index_blocks=workload.total_index_blocks)
        assert run.tracer is None
        assert run.counters is None
        assert memsys.tracer is NULL_TRACER
        assert memsys.cache.tracer is NULL_TRACER
        assert "counters" not in run.to_dict()

    def test_tracing_does_not_perturb_aggregates(self):
        workload = build_workload(WORKLOAD, scale=SCALE, seed=0)
        plain = simulate(build_memsys("metal", workload), workload.requests,
                         total_index_blocks=workload.total_index_blocks)
        traced = traced_run("metal", workload=build_workload(
            WORKLOAD, scale=SCALE, seed=0))
        assert plain.makespan == traced.makespan
        assert plain.total_walk_cycles == traced.total_walk_cycles
        assert plain.dram.accesses == traced.dram.accesses
        assert plain.short_circuited == traced.short_circuited


class TestFaultedTraceParity:
    """Observability must not perturb the fault schedule: with a nonzero
    ``FaultPlan``, the traced and untraced runs are the same simulation."""

    def _faulted_run(self, trace: bool):
        from repro.faults import FaultPlan

        workload = build_workload(WORKLOAD, scale=SCALE, seed=0)
        plan = FaultPlan.uniform(0.05, seed=4)
        sim = replace(workload.config.sim_params(), trace=trace, faults=plan)
        memsys = build_memsys("metal", workload, sim=sim)
        return simulate(memsys, workload.requests, sim,
                        workload.total_index_blocks, record_latencies=True)

    def test_trace_on_off_to_dict_identical_under_faults(self):
        off = self._faulted_run(trace=False).to_dict()
        on = self._faulted_run(trace=True).to_dict()
        # Counters exist only when tracing; everything else — makespan,
        # latency histograms, and the fault ledger itself — must match
        # byte for byte, or tracing forked the injection schedule.
        assert off.pop("counters", None) is None
        counters = on.pop("counters")
        assert json.dumps(on, sort_keys=True) == json.dumps(
            off, sort_keys=True)
        # The ledger is also mirrored into faults.* gauges when traced.
        ledger = on["faults"]
        assert ledger["faults_injected"] > 0
        for name, value in ledger.items():
            assert counters[f"faults.{name}"] == value

    def test_walk_end_events_carry_resilience_args(self):
        run = self._faulted_run(trace=True)
        ends = [e for e in run.tracer if e.kind == "walk_end"]
        assert ends
        assert all(
            "retry" in e.args and "degraded" in e.args for e in ends
        )
        retried = sum(e.args["retry"] for e in ends)
        assert retried == run.faults["retry_backoff_cycles"]


class TestRingBuffer:
    def test_bounded_buffer_drops_but_counts_stay_exact(self):
        run = traced_run("metal", trace_buffer=64)
        tracer = run.tracer
        assert len(tracer) == 64
        assert tracer.dropped > 0
        assert tracer.counts["dram_access"] == run.dram.accesses

    def test_truncated_chrome_export_still_balanced(self):
        run = traced_run("metal", trace_buffer=64)
        payload = to_chrome_trace(run.tracer)
        depth: Counter = Counter()
        for record in payload["traceEvents"]:
            if record["ph"] == "B":
                depth[record["tid"]] += 1
            elif record["ph"] == "E":
                depth[record["tid"]] -= 1
                assert depth[record["tid"]] >= 0
        assert all(count == 0 for count in depth.values())

    def test_explicit_tracer_wins_over_params(self):
        workload = build_workload(WORKLOAD, scale=SCALE, seed=0)
        tracer = Tracer(capacity=1 << 16)
        memsys = build_memsys("metal_ix", workload)
        run = simulate(memsys, workload.requests,
                       total_index_blocks=workload.total_index_blocks,
                       tracer=tracer)
        assert run.tracer is tracer
        assert len(tracer) > 0
