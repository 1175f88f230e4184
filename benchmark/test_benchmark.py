"""Smoke test for the benchmark: ``pytest benchmark/``.

Runs all four workloads at tiny sizes, once untraced and twice traced,
each time in fresh processes through ``run.py``, and checks how failed
output checks are counted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import MODELED, CellOutput, Checker, Workload  # noqa: E402


def run_all(out: Path, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "1",
         "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict:
    return run_all(tmp_path_factory.mktemp("untraced"), 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[dict, dict]:
    return (run_all(tmp_path_factory.mktemp("traced_a"), 1),
            run_all(tmp_path_factory.mktemp("traced_b"), 1))


def check_declared(results: dict, declared: list[dict]) -> None:
    assert list(results) == WORKLOADS
    units = {m["name"]: m["unit"] for m in declared}
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_end_to_end_metrics_are_declared_and_positive(untraced):
    check_declared(untraced, SPEC["end_to_end"])
    for result in untraced.values():
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_times_reconcile_to_traced_wall(traced):
    check_declared(traced[0], SPEC["per_layer"])
    for result in traced[0].values():
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(metrics[name] for name in LAYER_METRICS.values())
        assert abs(layers - metrics["traced_wall_s"]) <= 1e-3


def test_modeled_counters_repeat_exactly(traced):
    first, second = traced
    for workload in WORKLOADS:
        for name in MODELED:
            assert (first[workload]["metrics"][name]
                    == second[workload]["metrics"][name]), (workload, name)


class BrokenInvariant(Workload):
    """Two cells; cell ``b`` breaks an invariant."""

    def setup(self) -> None:
        pass

    def cells(self) -> list[str]:
        return ["a", "b"]

    def run_cell(self, label: str) -> CellOutput:
        return CellOutput(1, {"cell": label})

    def invariants(self, payloads: dict[str, dict]) -> list[tuple[str, str]]:
        return [("b", "broken")]


def test_broken_invariant_fails_every_run_of_its_cell(tmp_path):
    checker = Checker(BrokenInvariant(0, True, tmp_path), None)
    for label in ["a", "b", "a", "b", "b"]:
        checker.run(label)
    checker.finish()
    assert (checker.attempted, checker.failed) == (5, 3)
    assert checker.problems == ["b: broken"]


def test_compare_fails_a_change_with_incorrect_runs():
    assert compare.failed_checks({"correct": False, "failed": 0}) == 1
    values = [100.0 + i for i in range(compare.PAIRS)]
    row = compare.verdict(values, values, "higher", 0.1, (0, 1))
    assert row["verdict"] == "failed"
