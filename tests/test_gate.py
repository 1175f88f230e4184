"""repro.gate: one load/write/compare and one set of exit codes for every
committed BENCH_*.json gate.

The table test drives each gated command end to end at smoke size
through the four baselines that matter — passing, missing, corrupt, and
regressed — and, for the commands that take a subset option, a subset
run against the full baseline.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Callable

import pytest

from repro import gate
from repro.cli import build_parser
from repro.cli import main as cli_main


def _perturb_report(doc: dict) -> str:
    key = next(k for k in sorted(doc["metrics"]) if k.startswith("headline."))
    doc["metrics"][key] *= 1.5
    return key


def _perturb_policy(doc: dict) -> str:
    key = "policy.scan.utility_rrip.tag_energy_fj"
    doc["metrics"][key] *= 1.5
    return key


def _perturb_serve(doc: dict) -> str:
    doc["points"][0]["p99"] = doc["points"][0]["p99"] * 2 + 1
    return "points.0.p99"


def _perturb_scale(doc: dict) -> str:
    doc["points"][0]["metrics"]["metal"]["makespan"] *= 2
    return "frac0.0001.metal.makespan"


@dataclass(frozen=True)
class Gate:
    """One gated command at smoke size."""

    run: Callable[[list[str]], int]
    argv: tuple[str, ...]
    #: Perturbs one gated value of a baseline document; returns its key.
    perturb: Callable[[dict], str]
    #: argv of a run that covers only part of the baseline.
    subset: tuple[str, ...] | None = None


POLICY = ("policy", "--scale", "0.01", "--no-tuned")

GATES = {
    "report": Gate(cli_main, ("report", "--scale", "0.01", "--fast"),
                   _perturb_report),
    "policy": Gate(cli_main,
                   POLICY + ("--policies", "utility_rrip,multistep_lru",
                             "--workloads", "scan,select"),
                   _perturb_policy,
                   subset=POLICY + ("--policies", "multistep_lru",
                                    "--workloads", "select")),
    "serve": Gate(cli_main, ("serve", "scan", "--scale", "0.01",
                             "--duration-ms", "1", "--loads", "0.5,1.1"),
                  _perturb_serve),
    "scale": Gate(cli_main, ("scale", "--points", "0.0001,0.0005"),
                  _perturb_scale, subset=("scale", "--points", "0.0005")),
}

EXPECTED = {"passing": 0, "missing": gate.EXIT_MISSING,
            "corrupt": gate.EXIT_MISSING, "regressed": gate.EXIT_REGRESSED}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Each gate's baseline, written once by its own command."""
    root = tmp_path_factory.mktemp("baselines")
    paths = {}

    def get(name: str):
        if name not in paths:
            path = root / f"{name}.json"
            g = GATES[name]
            assert g.run([*g.argv, "--baseline", str(path),
                          "--write-baseline"]) == 0
            paths[name] = path
        return paths[name]

    return get


@pytest.mark.parametrize("case", list(EXPECTED))
@pytest.mark.parametrize("name", list(GATES))
def test_gate_exit_codes_and_messages(name, case, written, tmp_path, capsys):
    g = GATES[name]
    source = written(name)
    path = tmp_path / "baseline.json"
    key = None
    if case == "passing":
        path.write_bytes(source.read_bytes())
    elif case == "corrupt":
        path.write_text("{not json")
    elif case == "regressed":
        doc = json.loads(source.read_text())
        key = g.perturb(doc)
        gate.write(str(path), doc)
    capsys.readouterr()

    rc = g.run([*g.argv, "--baseline", str(path)])
    out, err = capsys.readouterr()
    assert rc == EXPECTED[case]
    if case == "passing":
        assert "baseline check passed: " in out
        assert f"metrics within tolerance of {path}" in out
    elif case in ("missing", "corrupt"):
        assert err.count(f"baseline {path} not found or unreadable") == 1
    else:
        assert f"1 metric(s) regressed vs {path}:" in err
        assert f"  - {key}: " in err


@pytest.mark.parametrize(
    "name", [name for name, g in GATES.items() if g.subset])
def test_subset_run_passes_against_full_baseline(name, written, capsys):
    g = GATES[name]
    path = written(name)
    capsys.readouterr()
    assert g.run([*g.subset, "--baseline", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "baseline check passed: " in out
    assert "missing from run" not in out + err


@pytest.mark.parametrize("command", ["report", "policy", "serve"])
def test_gated_subcommands_share_one_option_set(command, capsys):
    with pytest.raises(SystemExit):
        cli_main([command, "--help"])
    help_text = capsys.readouterr().out
    assert "--baseline [PATH]" in help_text and "--write-baseline" in help_text
    assert "--check" not in help_text and "--baseline-rtol" not in help_text
    argv = [command] + (["scan"] if command == "serve" else [])
    args = build_parser().parse_args(argv + ["--baseline"])
    assert args.baseline.startswith("BENCH_") and not args.write_baseline


def test_scale_sweep_help_has_no_check(capsys):
    with pytest.raises(SystemExit):
        cli_main(["scale", "--help"])
    help_text = capsys.readouterr().out
    assert "--baseline [PATH]" in help_text
    assert "--check" not in help_text


# --------------------------------------------------------------------- #
# Units: compare, load, write, validate
# --------------------------------------------------------------------- #

def test_config_mismatch_voids_the_comparison():
    expected = {"scale": 0.01, "a.makespan": 10}
    actual = {"scale": 0.02, "a.makespan": 99, "b.new": 1}
    regressions, notes = gate.compare(expected, actual, config=("scale",))
    assert regressions == ["scale mismatch: baseline 0.01 vs run 0.02"]
    assert notes == []


def test_exact_fields_and_tolerance():
    expected = {"p.offered": 1000, "p.p99": 1000, "knee": None, "w": "scan"}
    within = {"p.offered": 1000, "p.p99": 1040, "knee": None, "w": "scan"}
    assert gate.compare(expected, within, exact=("offered",)) == ([], [])
    off_by_one = dict(within, **{"p.offered": 1001})
    regressions, _ = gate.compare(expected, off_by_one, exact=("offered",))
    assert regressions == ["p.offered: 1001 != baseline 1000"]
    # Non-numbers are always exact; the stored tolerance bounds the rest.
    drifted = dict(within, knee=1.0, w="select")
    assert len(gate.compare(expected, drifted, exact=("offered",))[0]) == 2
    assert len(gate.compare(expected, within, rtol=0.01,
                            exact=("offered",))[0]) == 1


def test_missing_keys_regress_unless_uncovered_and_new_keys_are_notes():
    expected = {"x.hit_rate": 0.5, "y.hit_rate": 0.5}
    actual = {"x.hit_rate": 0.5, "z.hit_rate": 0.7}
    regressions, notes = gate.compare(expected, actual)
    assert regressions == ["y.hit_rate: missing from run (baseline 0.5)"]
    assert notes == ["z.hit_rate: new metric 0.7 (not in baseline)"]
    regressions, _ = gate.compare(expected, actual,
                                  covered=lambda key: key.startswith("x."))
    assert regressions == []


def test_load_refuses_non_objects(tmp_path):
    path = tmp_path / "b.json"
    with pytest.raises(OSError):
        gate.load(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        gate.load(str(path))
    path.write_text('{"a": 1}')
    assert gate.load(str(path)) == {"a": 1}


def test_write_is_sorted_indented_and_newline_terminated(tmp_path):
    path = tmp_path / "b.json"
    doc = {"b": [1, 2], "a": {"d": 1.5, "c": None}}
    gate.write(str(path), doc)
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_write_baseline_requires_a_path(capsys):
    gate.validate(argparse.Namespace(baseline=None, write_baseline=False))
    gate.validate(argparse.Namespace(baseline="b.json", write_baseline=True))
    with pytest.raises(SystemExit) as exc:
        gate.validate(argparse.Namespace(baseline=None, write_baseline=True))
    assert exc.value.code == 2
    assert "--write-baseline requires --baseline" in capsys.readouterr().err

