"""The single command line: one parser, every subcommand's help, and bad
option values rejected at the boundary with exit status 2."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main

SUBCOMMANDS = ("workloads", "run", "compare", "report", "chaos",
               "serve", "scale", "policy", "ablation", "trace", "profile")


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
