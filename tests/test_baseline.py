"""Report regression baselines: extraction, comparison, and exit codes.

The contract CI leans on: self-comparison passes (deterministic
simulation => identical metrics), perturbation beyond tolerance exits
nonzero, a missing baseline file is its own distinct failure, and scale
mismatches are refused rather than silently compared. Comparison runs
through :mod:`repro.gate` with the report's rules.
"""

import argparse
import json

import pytest

from repro import gate
from repro.bench.report import (
    GATE,
    baseline_document,
    extract_key_metrics,
    generate_report,
)
from repro.cli import main as cli_main

SCALE = 0.02


def compare(baseline: dict, payload: dict, **kwargs):
    """gate.compare on the report's flattened baseline and run."""
    kwargs.setdefault("rtol", baseline["rtol"])
    return gate.compare(GATE.flatten(baseline),
                        GATE.flatten(baseline_document(payload)),
                        config=GATE.config, **kwargs)


@pytest.fixture(scope="module")
def payload():
    collected: dict = {}
    generate_report(scale=SCALE, fast=True, collect_json=collected)
    return collected


class TestExtraction:
    def test_covers_every_figure_group(self, payload):
        metrics = extract_key_metrics(payload)
        groups = {name.split(".")[0] for name in metrics}
        assert groups == {"fig18", "headline", "table3"}
        # Fig. 18 contributes speedup/miss/working-set per (workload,
        # system); the streaming baseline itself has speedup 1.0.
        stream_speedups = [v for k, v in metrics.items()
                          if k.startswith("fig18") and
                          k.endswith("stream.speedup")]
        assert stream_speedups and all(v == 1.0 for v in stream_speedups)

    def test_values_are_finite_floats(self, payload):
        for name, value in extract_key_metrics(payload).items():
            assert isinstance(value, float) or isinstance(value, int), name
            assert value == value and abs(value) != float("inf"), name

    def test_empty_payload_gives_empty_metrics(self):
        assert extract_key_metrics({}) == {}


class TestCompare:
    def test_self_compare_clean(self, payload, tmp_path):
        path = tmp_path / "b.json"
        baseline = baseline_document(payload)
        gate.write(str(path), baseline)
        assert gate.load(str(path)) == baseline
        assert baseline["rtol"] == gate.DEFAULT_RTOL
        regressions, notes = compare(baseline, payload)
        assert regressions == []
        assert notes == []

    def test_perturbation_beyond_tolerance_regresses(self, payload):
        baseline = {
            "schema": 1, "scale": payload["scale"], "rtol": 0.05,
            "metrics": dict(extract_key_metrics(payload)),
        }
        name = next(iter(baseline["metrics"]))
        baseline["metrics"][name] *= 1.10  # 10% > 5% tolerance
        regressions, _ = compare(baseline, payload)
        assert len(regressions) == 1
        assert name in regressions[0]

    def test_perturbation_within_tolerance_passes(self, payload):
        baseline = {
            "schema": 1, "scale": payload["scale"], "rtol": 0.05,
            "metrics": dict(extract_key_metrics(payload)),
        }
        name = next(iter(baseline["metrics"]))
        baseline["metrics"][name] *= 1.02  # 2% < 5% tolerance
        regressions, _ = compare(baseline, payload)
        assert regressions == []

    def test_rtol_override_beats_stored_tolerance(self, payload, tmp_path,
                                                   capsys):
        baseline = {
            "schema": 1, "scale": payload["scale"], "rtol": 0.5,
            "metrics": dict(extract_key_metrics(payload)),
        }
        name = next(iter(baseline["metrics"]))
        baseline["metrics"][name] *= 1.10
        assert compare(baseline, payload)[0] == []
        assert len(compare(baseline, payload, rtol=0.01)[0]) == 1
        # The gate reads the tolerance the baseline file stores.
        path = tmp_path / "b.json"
        gate.write(str(path), baseline)
        args = argparse.Namespace(baseline=str(path), write_baseline=False)
        assert gate.finish(args, baseline_document(payload), GATE) == 0
        assert "baseline check passed" in capsys.readouterr().out

    def test_missing_metric_is_a_regression(self, payload):
        baseline = {
            "schema": 1, "scale": payload["scale"], "rtol": 0.05,
            "metrics": {"fig18.gone.metal.speedup": 2.0,
                        **extract_key_metrics(payload)},
        }
        regressions, _ = compare(baseline, payload)
        assert any("missing from run" in r for r in regressions)

    def test_new_metric_is_a_note_not_a_regression(self, payload):
        metrics = dict(extract_key_metrics(payload))
        dropped = next(iter(metrics))
        del metrics[dropped]
        baseline = {"schema": 1, "scale": payload["scale"], "rtol": 0.05,
                    "metrics": metrics}
        regressions, notes = compare(baseline, payload)
        assert regressions == []
        assert any(dropped in note for note in notes)

    def test_scale_mismatch_refused(self, payload):
        baseline = {"schema": 1, "scale": 0.5, "rtol": 0.05,
                    "metrics": extract_key_metrics(payload)}
        regressions, _ = compare(baseline, payload)
        assert len(regressions) == 1
        assert "scale mismatch" in regressions[0]


class TestMainExitCodes:
    def test_round_trip_write_then_pass(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        assert cli_main(["report", "--scale", str(SCALE), "--fast",
                         "--baseline", str(path),
                         "--write-baseline"]) == 0
        assert cli_main(["report", "--scale", str(SCALE), "--fast",
                         "--baseline", str(path)]) == 0
        assert "baseline check passed" in capsys.readouterr().out

    def test_missing_baseline_file_exit(self, tmp_path, capsys):
        rc = cli_main(["report", "--scale", str(SCALE), "--fast",
                       "--baseline", str(tmp_path / "nope.json")])
        assert rc == gate.EXIT_MISSING
        assert "not found" in capsys.readouterr().err

    def test_perturbed_baseline_exit(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        cli_main(["report", "--scale", str(SCALE), "--fast",
                  "--baseline", str(path), "--write-baseline"])
        capsys.readouterr()
        stored = json.loads(path.read_text())
        name = next(k for k in stored["metrics"]
                    if k.startswith("headline."))
        stored["metrics"][name] *= 1.5
        path.write_text(json.dumps(stored))
        rc = cli_main(["report", "--scale", str(SCALE), "--fast",
                       "--baseline", str(path)])
        assert rc == gate.EXIT_REGRESSED
        err = capsys.readouterr().err
        assert "regressed" in err and name in err

    def test_write_baseline_requires_baseline_path(self):
        with pytest.raises(SystemExit):
            cli_main(["report", "--scale", str(SCALE), "--fast",
                      "--write-baseline"])

    def test_committed_baseline_matches_repo(self):
        # The file CI gates on must self-compare cleanly at its scale.
        with open("BENCH_baseline.json") as f:
            baseline = json.load(f)
        assert baseline["schema"] == 1
        assert baseline["scale"] == 0.01
        assert len(baseline["metrics"]) > 100
