"""Smoke tests for the repro.perf microbenchmark harness."""

import json

import pytest

from repro import gate
from repro.perf import (
    KERNELS,
    PerfReport,
    format_report,
    format_speedups,
    kernel_names,
    run_suite,
    speedups,
)
from repro.perf.harness import GATE, PERF_SCHEMA, covered_by


def compare(baseline: dict, report: PerfReport, only=None):
    """gate.compare on the perf rules: checksums exact, scale config."""
    return gate.compare(GATE.flatten(baseline), GATE.flatten(report.to_dict()),
                        config=GATE.config, exact=GATE.exact,
                        covered=covered_by(only))[0]


@pytest.fixture(scope="module")
def tiny_report() -> PerfReport:
    """One cheap suite run shared by the module (kernels are deterministic)."""
    return run_suite(scale=0.01, repeat=2, warmup=0)


class TestRunSuite:
    def test_covers_every_kernel(self, tiny_report):
        assert set(tiny_report.kernels) == set(KERNELS)
        assert kernel_names() == tuple(KERNELS)

    def test_samples_and_checksums(self, tiny_report):
        for kernel in tiny_report.kernels.values():
            assert len(kernel.runs_s) == 2
            assert all(s > 0 for s in kernel.runs_s)
            assert kernel.checksum
            assert kernel.median_s >= kernel.min_s > 0

    def test_checksums_reproducible_across_suites(self, tiny_report):
        again = run_suite(
            names=("ix_probe_fill", "walk_gen"), scale=0.01, repeat=1, warmup=0
        )
        for name, kernel in again.kernels.items():
            assert kernel.checksum == tiny_report.kernels[name].checksum

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            run_suite(names=("no_such_kernel",), scale=0.01, repeat=1)

    def test_report_serializes(self, tiny_report, tmp_path):
        path = tmp_path / "perf.json"
        tiny_report.write(str(path))
        data = json.loads(path.read_text())
        assert data["schema"] == PERF_SCHEMA
        assert data["scale"] == 0.01
        assert set(data["kernels"]) == set(KERNELS)
        table = format_report(tiny_report)
        for name in KERNELS:
            assert name in table


class TestCompareReports:
    def test_self_comparison_is_clean(self, tiny_report):
        baseline = tiny_report.to_dict()
        assert not compare(baseline, tiny_report)
        ratios = speedups(baseline, tiny_report)
        assert set(ratios) == set(KERNELS)
        assert all(ratio == pytest.approx(1.0) for ratio in ratios.values())
        table = format_speedups(ratios)
        assert "informational" in table
        assert all(name in table for name in KERNELS)

    def test_checksum_drift_is_a_hard_failure(self, tiny_report):
        baseline = tiny_report.to_dict()
        baseline["kernels"]["walk_gen"]["checksum"] = "bogus"
        mismatches = compare(baseline, tiny_report)
        assert any("walk_gen" in m and "checksum" in m for m in mismatches)

    def test_scale_mismatch_voids_comparison(self, tiny_report):
        baseline = tiny_report.to_dict()
        baseline["scale"] = 0.5
        assert not speedups(baseline, tiny_report)
        mismatches = compare(baseline, tiny_report)
        assert any("scale mismatch" in m for m in mismatches)
        assert len(mismatches) == 1

    def test_missing_kernel_reported(self, tiny_report):
        baseline = tiny_report.to_dict()
        sliced = run_suite(names=("ix_probe_fill",), scale=0.01, repeat=1)
        mismatches = compare(baseline, sliced)
        assert any("missing from run" in m for m in mismatches)
        # A --kernels run answers only for the kernels it ran.
        assert not compare(baseline, sliced, only=("ix_probe_fill",))


class TestCLI:
    def test_perf_subcommand_roundtrip(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "run.json"
        baseline = tmp_path / "BENCH_perf.json"
        args = ["perf", "--scale", "0.01", "--repeat", "1", "--warmup", "0",
                "--kernels", "ix_probe_fill", "--quiet"]
        assert main(args + ["--write-baseline", "--baseline", str(baseline)]) == 0
        assert baseline.exists()
        assert main(args + ["--out", str(out), "--baseline", str(baseline)]) == 0
        assert json.loads(out.read_text())["kernels"]["ix_probe_fill"]["checksum"]

    def test_missing_baseline_exit_code(self, tmp_path):
        from repro.cli import main

        code = main([
            "perf", "--scale", "0.01", "--repeat", "1", "--warmup", "0",
            "--kernels", "ix_probe_fill", "--quiet",
            "--baseline", str(tmp_path / "absent.json"),
        ])
        assert code == gate.EXIT_MISSING

    def test_tampered_baseline_exit_code(self, tmp_path):
        from repro.cli import main

        baseline = tmp_path / "BENCH_perf.json"
        args = ["perf", "--scale", "0.01", "--repeat", "1", "--warmup", "0",
                "--kernels", "ix_probe_fill", "--quiet"]
        assert main(args + ["--write-baseline", "--baseline", str(baseline)]) == 0
        data = json.loads(baseline.read_text())
        data["kernels"]["ix_probe_fill"]["checksum"] = "tampered"
        baseline.write_text(json.dumps(data))
        assert main(args + ["--baseline", str(baseline)]) == gate.EXIT_REGRESSED
