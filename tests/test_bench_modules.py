"""Smoke + shape tests for the benchmark harness modules at tiny scale."""

import pytest

from repro.bench import adaptivity, breakdown, occupancy, speedup, trends
from repro.bench.grid import run_grid
from repro.bench.runner import SYSTEMS, build_memsys, run_workload
from repro.exec import get_workload

SCALE = 0.05


@pytest.fixture(scope="module")
def tiny_workloads():
    return {name: get_workload(name, SCALE) for name in ("scan", "spmm")}


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


class TestTrends:
    def test_run_and_format(self):
        results = run_grid(("scan",), trends.TREND_CELLS, scale=SCALE)
        assert len(results) == 1
        for fmt in (trends.format_fig15, trends.format_fig16, trends.format_fig17):
            out = fmt(results)
            assert "Scan" in out


class TestSpeedup:
    def test_run_and_headline(self):
        results = run_grid(("scan",), scale=SCALE)
        ratios = speedup.headline_ratios(results)
        assert set(ratios) == {"stream", "address", "xcache", "metal_ix"}
        assert all(v > 0 for v in ratios.values())
        assert "METAL speedup per workload" in speedup.format_fig18(results)


class TestBreakdownOccupancyAdaptivity:
    def test_breakdown(self):
        results = run_grid(("scan",), breakdown.BREAKDOWN_CELLS, scale=SCALE)
        assert results[0].speedups()["metal_ix"] > 0
        assert "IX only" in breakdown.format_fig20(results)

    def test_occupancy(self):
        results = occupancy.run_occupancy(("scan",), scale=SCALE)
        assert "metal" in results[0].by_level
        assert "L0" in occupancy.format_fig21(results)

    def test_adaptivity(self):
        result = adaptivity.run_adaptivity(scale=SCALE)
        assert result.windows
        assert "window" in adaptivity.format_fig22(result)


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


class TestOneBuildPerWorkload:
    """Cells name their workload by (name, scale); the exec worker's memo
    is the one place a built registry workload lives."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from collections import Counter

        from repro.exec import worker
        from repro.workloads import suite

        counts: Counter = Counter()
        real = suite.build_workload

        def counting(name, scale=1.0, seed=0, **kwargs):
            counts[name] += 1
            return real(name, scale=scale, seed=seed, **kwargs)

        monkeypatch.setattr(worker, "build_workload", counting)
        monkeypatch.setattr(suite, "build_workload", counting)
        worker.clear_workload_memo()
        yield counts
        worker.clear_workload_memo()

    def test_figure_grids_share_one_build(self, builds):
        from repro.exec import Executor

        # A private executor: the shared default one may already hold
        # these cells' outcomes from other tests, and would build nothing.
        executor = Executor(jobs=1)
        run_grid(("scan",), scale=0.02, executor=executor)
        run_grid(("scan",), trends.TREND_CELLS, scale=0.02, executor=executor)
        occupancy.run_occupancy(("scan",), scale=0.02, executor=executor)
        assert builds == {"scan": 1}

    def test_compare_builds_once(self, builds, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["compare", "scan", "--scale", "0.02",
                       "--systems", "stream,metal"])
        assert rc == 0
        assert "scan:" in capsys.readouterr().out
        assert builds == {"scan": 1}
