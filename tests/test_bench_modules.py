"""Smoke + shape tests for the benchmark harness modules at tiny scale."""

import pytest

from repro.bench import adaptivity, breakdown, occupancy, seeds, speedup, summary, trends
from repro.bench.runner import SYSTEMS, build_memsys, run_workload
from repro.workloads.suite import build_workload

SCALE = 0.05


@pytest.fixture(scope="module")
def tiny_workloads():
    return {name: build_workload(name, scale=SCALE) for name in ("scan", "spmm")}


class TestRunner:
    def test_systems_constant(self):
        assert SYSTEMS == ("stream", "address", "fa_opt", "xcache", "metal_ix", "metal")

    def test_build_each_system(self, tiny_workloads):
        wl = tiny_workloads["scan"]
        for kind in SYSTEMS:
            assert build_memsys(kind, wl).name == kind

    def test_run_workload_returns_result(self, tiny_workloads):
        run = run_workload(tiny_workloads["scan"], "metal")
        assert run.num_walks == len(tiny_workloads["scan"].requests)

    def test_cache_bytes_override(self, tiny_workloads):
        wl = tiny_workloads["scan"]
        small = run_workload(wl, "metal", cache_bytes=1024)
        big = run_workload(wl, "metal", cache_bytes=32 * 1024)
        assert big.makespan <= small.makespan * 1.05


class TestTrends:
    def test_run_and_format(self, tiny_workloads):
        results = trends.run_trends(("scan",), prebuilt=tiny_workloads)
        assert len(results) == 1
        for fmt in (trends.format_fig15, trends.format_fig16, trends.format_fig17):
            out = fmt(results)
            assert "Scan" in out


class TestSpeedup:
    def test_run_and_headline(self, tiny_workloads):
        results = speedup.run_speedups(("scan",), prebuilt=tiny_workloads)
        ratios = speedup.headline_ratios(results)
        assert set(ratios) == {"stream", "address", "xcache", "metal_ix"}
        assert all(v > 0 for v in ratios.values())
        assert "METAL speedup per workload" in speedup.format_fig18(results)


class TestBreakdownOccupancyAdaptivity:
    def test_breakdown(self, tiny_workloads):
        results = breakdown.run_breakdown(("scan",), prebuilt=tiny_workloads)
        assert results[0].ix > 0
        assert "IX only" in breakdown.format_fig20(results)

    def test_occupancy(self, tiny_workloads):
        results = occupancy.run_occupancy(("scan",), prebuilt=tiny_workloads)
        assert "metal" in results[0].by_level
        assert "L0" in occupancy.format_fig21(results)

    def test_adaptivity(self, tiny_workloads):
        result = adaptivity.run_adaptivity(prebuilt=tiny_workloads["scan"])
        assert result.windows
        assert "window" in adaptivity.format_fig22(result)


class TestSeeds:
    def test_seed_sweep(self):
        sweep = seeds.run_seed_sweep("scan", seeds=(0, 1), scale=SCALE)
        assert len(sweep.ratios["stream"]) == 2
        assert sweep.mean("stream") > 1.0
        assert "Robustness" in seeds.format_seed_sweep(sweep)

    def test_seed_variation_is_bounded(self):
        sweep = seeds.run_seed_sweep("scan", seeds=(0, 1, 2), scale=SCALE)
        mean = sweep.mean("stream")
        assert sweep.stdev("stream") < mean * 0.5


class TestSummary:
    def test_table3(self):
        result = summary.run_summary(scale=SCALE)
        out = summary.format_table3(result)
        assert "Question" in out
        assert result.ratios["stream"] > 1.0


class TestReport:
    def test_generate_report_fast(self):
        """Full report generation (fast mode) at tiny scale."""
        from repro.bench.report import generate_report

        report = generate_report(scale=0.03, fast=True)
        for marker in ("Fig. 7", "Table 2", "Fig. 15", "Fig. 18",
                       "Fig. 20", "Fig. 22", "Table 3"):
            assert marker in report

    def test_report_written_to_file(self, tmp_path):
        from repro.cli import main as cli_main

        out = tmp_path / "report.txt"
        rc = cli_main(["report", "--scale", "0.03", "--fast", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "Table 3" in out.read_text()

    def test_report_json_export(self, tmp_path):
        import json

        from repro.cli import main as cli_main

        out = tmp_path / "data.json"
        rc = cli_main(["report", "--scale", "0.03", "--fast", "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert "fig18" in payload and "table3" in payload
        assert payload["headline"]["stream"] > 1.0
        scan = payload["fig18"]["scan"]
        assert scan["metal"]["num_walks"] > 0
