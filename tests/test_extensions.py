"""Tests for the extensions: ablations, prefetcher, trace I/O, CLI."""

import pytest

from repro.bench import ablation
from repro.bench.grid import run_grid
from repro.bench.runner import run_workload
from repro.cli import main as cli_main
from repro.exec import get_workload
from repro.workloads.suite import build_workload
from repro.workloads.trace_io import load_trace, save_trace, workload_index_names


SCALE = 0.06


@pytest.fixture(scope="module")
def scan_workload():
    return get_workload("scan", SCALE)


def _scan_row(cells):
    return run_grid(ablation.WORKLOADS, cells, scale=SCALE)[0]


class TestGeometryAblation:
    def test_more_ways_not_worse(self):
        results = _scan_row(ablation.geometry_cells((1, 16))).runs
        assert results[16].makespan <= results[1].makespan * 1.05

    def test_all_ways_run(self):
        results = _scan_row(ablation.geometry_cells((4, 8))).runs
        assert set(results) == {4, 8}


class TestSharedVsPrivate:
    def test_shared_has_better_hit_rate(self):
        row = _scan_row(ablation.shared_vs_private_cells)
        assert len(row.runs) == 1 + ablation.PARTITIONS
        shared_hit = row.runs["shared"].cache_stats.hit_rate
        assert shared_hit >= ablation.private_hit_rate(row)


class TestMechanismToggles:
    def test_all_configs_run(self):
        runs = _scan_row(ablation.TOGGLE_CELLS).runs
        assert "metal (default)" in runs
        assert "address + prefetch" in runs
        assert all(run.makespan > 0 for run in runs.values())


class TestPrefetcher:
    def test_prefetch_increases_traffic(self, scan_workload):
        plain = run_workload(scan_workload, "address")
        pf = run_workload(scan_workload, "address_pf")
        # Next-line prefetching on pointer chases wastes bandwidth.
        assert pf.dram.accesses > plain.dram.accesses

    def test_prefetch_name(self, scan_workload):
        assert run_workload(scan_workload, "address_pf").name == "address_pf"


class TestTraceIO:
    def test_roundtrip(self, scan_workload, tmp_path):
        path = tmp_path / "trace.jsonl"
        names = workload_index_names(scan_workload)
        wrote = save_trace(path, scan_workload.requests, names)
        assert wrote == len(scan_workload.requests)

        table = scan_workload.indexes[0]
        loaded = load_trace(path, {"index0": table})
        assert len(loaded) == len(scan_workload.requests)
        assert [r.key for r in loaded] == [r.key for r in scan_workload.requests]
        assert loaded[0].index is table

    def test_loaded_trace_simulates(self, scan_workload, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(path, scan_workload.requests, workload_index_names(scan_workload))
        loaded = load_trace(path, {"index0": scan_workload.indexes[0]})
        run = run_workload(scan_workload, "metal")
        from repro.bench.runner import build_memsys
        from repro.sim.metrics import simulate

        memsys = build_memsys("metal", scan_workload)
        replay = simulate(memsys, loaded, memsys.sim, scan_workload.total_index_blocks)
        assert replay.num_walks == run.num_walks

    def test_unknown_index_name_rejected(self, scan_workload, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(path, scan_workload.requests, workload_index_names(scan_workload))
        with pytest.raises(KeyError):
            load_trace(path, {})

    def test_unnamed_index_rejected(self, scan_workload, tmp_path):
        with pytest.raises(KeyError):
            save_trace(tmp_path / "t.jsonl", scan_workload.requests, {})

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ValueError):
            load_trace(path, {})

    def test_multi_index_workload(self, tmp_path):
        wl = build_workload("join", scale=SCALE)
        names = workload_index_names(wl)
        path = tmp_path / "join.jsonl"
        save_trace(path, wl.requests, names)
        by_name = {name: None for name in names.values()}
        lookup = {id(i): i for i in wl.indexes}
        for oid, name in names.items():
            by_name[name] = lookup.get(oid)
        loaded = load_trace(path, {k: v for k, v in by_name.items() if v})
        assert len(loaded) == len(wl.requests)


class TestCLI:
    def test_workloads_listing(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "scan" in out and "pagerank" in out

    def test_compare(self, capsys):
        rc = cli_main([
            "compare", "scan", "--scale", "0.05",
            "--systems", "stream,metal",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metal" in out and "speedup" in out

    def test_compare_unknown_system(self, capsys):
        rc = cli_main(["compare", "scan", "--systems", "l2"])
        assert rc == 2

    def test_compare_cache_size(self, capsys):
        rc = cli_main([
            "compare", "scan", "--scale", "0.05",
            "--systems", "metal", "--cache-kb", "4",
        ])
        assert rc == 0


class TestDynamicMixModule:
    def test_run_dynamic_mix_coherent(self):
        from repro.bench.dynamic import format_dynamic_mix, run_dynamic_mix

        results = run_dynamic_mix(
            num_records=800, num_ops=400,
            kinds=("stream", "metal_ix"),
        )
        assert all(r.invalidations_survived for r in results)
        by_name = {r.system: r for r in results}
        assert by_name["metal_ix"].makespan < by_name["stream"].makespan
        out = format_dynamic_mix(results)
        assert "coherent" in out

    def test_read_fraction_validated(self):
        import pytest

        from repro.bench.dynamic import run_dynamic_mix

        with pytest.raises(ValueError):
            run_dynamic_mix(read_fraction=1.5)
