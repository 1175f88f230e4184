"""The single command line: one parser, every subcommand's help, and bad
option values rejected at the boundary with exit status 2."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main

SUBCOMMANDS = ("workloads", "compare", "report", "chaos", "serve",
               "scale", "policy", "ablation", "trace", "profile")


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def test_subcommand_set_is_exact():
    assert tuple(_subparsers()) == SUBCOMMANDS


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_prints_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: repro {command}")
    assert "--golden" not in out


def test_scale_takes_exactly_the_sweep_options():
    options = {option for action in _subparsers()["scale"]._actions
               for option in action.option_strings}
    assert options == {"-h", "--help", "--points", "--baseline",
                       "--write-baseline"}


#: argv -> (option named in the error, offending value).
BAD_INPUTS = {
    "points-not-a-number": (["scale", "--points", "abc"], "--points", "abc"),
    "points-negative": (["scale", "--points", "-0.01"], "--points", "-0.01"),
    "serve-zero-users": (["serve", "scan", "--users", "0"], "--users", "0"),
    "serve-zero-tiles": (["serve", "scan", "--tiles", "0"], "--tiles", "0"),
    "serve-zero-duration": (["serve", "scan", "--duration-ms", "0"],
                            "--duration-ms", "0"),
    "policy-unknown-workload": (["policy", "--workloads", "nope"],
                                "--workloads", "nope"),
    "policy-unknown-policy": (["policy", "--policies", "bogus"],
                              "--policies", "bogus"),
    "compare-zero-scale": (["compare", "scan", "--scale", "0"],
                           "--scale", "0"),
    "chaos-negative-scale": (["chaos", "scan", "--scale", "-1"],
                             "--scale", "-1"),
    "compare-zero-jobs": (["compare", "scan", "--jobs", "0"], "--jobs", "0"),
    "compare-word-jobs": (["compare", "scan", "--jobs", "abc"],
                          "--jobs", "abc"),
    "report-zero-jobs": (["report", "--jobs", "0"], "--jobs", "0"),
    "serve-negative-jobs": (["serve", "scan", "--jobs", "-2"], "--jobs", "-2"),
    "chaos-word-jobs": (["chaos", "scan", "--jobs", "many"],
                        "--jobs", "many"),
    "policy-zero-jobs": (["policy", "--jobs", "0"], "--jobs", "0"),
    "compare-negative-cache": (["compare", "scan", "--cache-kb", "-4"],
                               "--cache-kb", "-4"),
    "compare-zero-cache": (["compare", "scan", "--cache-kb", "0"],
                           "--cache-kb", "0"),
    "trace-zero-cache": (["trace", "scan", "--cache-kb", "0"],
                         "--cache-kb", "0"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_before_any_work(case, capsys):
    argv, option, value = BAD_INPUTS[case]
    # Any exception other than argparse's SystemExit would be a traceback.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"argument {option}" in errors[0] and value in errors[0]
    assert "Traceback" not in err


def test_jobs_accepts_counts_and_auto():
    parser = build_parser()
    assert parser.parse_args(["compare", "scan", "--jobs", "3"]).jobs == 3
    assert parser.parse_args(["serve", "scan", "--jobs", "auto"]).jobs == "auto"
    assert parser.parse_args(["report"]).jobs == 1


def test_serve_sweeps_loads_in_ascending_order(capsys):
    """The knee is read against the lightest load whatever order --loads
    lists them in, and a repeated load is swept once."""
    argv = ["serve", "scan", "--scale", "0.01", "--duration-ms", "1"]
    assert main(argv + ["--loads", "0.2,0.6,1.3"]) == 0
    ordered = capsys.readouterr().out
    assert "knee at load 1.3" in ordered
    assert main(argv + ["--loads", "1.3,0.2,0.6,0.2"]) == 0
    assert capsys.readouterr().out == ordered
