"""Pieces shared by the subcommand modules behind ``python -m repro``.

The argparse ``type=`` callables here reject bad input at the command-line
boundary: argparse turns their :class:`argparse.ArgumentTypeError` into a
one-line ``error:`` message and exit status 2, before any work starts.
Checks that span two options (``--skew`` against ``--tiles``) stay in the
subcommand's ``run``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterable

from repro.workloads.suite import WORKLOAD_BUILDERS


def positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def jobs(text: str) -> int | str:
    """A worker-process count: a positive integer or ``auto``."""
    return text if text == "auto" else positive_int(text)


def add_jobs(parser: argparse.ArgumentParser) -> None:
    """The ``--jobs`` option of every command that runs an Executor."""
    parser.add_argument("--jobs", type=jobs, default=1,
                        help="worker processes: a number or 'auto' (all "
                             "cores); 1 = in-process")


def float_list(lo: float, hi: float = math.inf, closed: bool = False):
    """Comma list of finite floats in ``(lo, hi]``, or ``[lo, hi]`` when
    ``closed``."""
    bounds = (f"{'[' if closed else '('}{lo:g}, {hi:g}"
              f"{']' if math.isfinite(hi) else ')'}")

    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(v) for v in text.split(","))
        except ValueError:
            values = ()
        if not values or not all(
                math.isfinite(v) and (lo <= v if closed else lo < v) and v <= hi
                for v in values):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a comma-separated list of numbers in "
                f"{bounds}")
        return values

    return parse


def name_list(registry: Iterable[str]):
    """Comma list of names from ``registry``; empty items are dropped."""
    known = tuple(registry)

    def parse(text: str) -> tuple[str, ...]:
        names = tuple(name for name in text.split(",") if name)
        unknown = sorted(set(names) - set(known))
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {', '.join(unknown)} (choose from "
                f"{', '.join(known)})")
        return names

    return parse


def add_workload(parser: argparse.ArgumentParser) -> None:
    """The positional Table-2 workload name."""
    parser.add_argument("workload", choices=sorted(WORKLOAD_BUILDERS))


def report_problems(title: str, problems: list[str]) -> bool:
    """Print ``title`` and one line per problem to stderr; True if any."""
    if problems:
        print(f"\n{title}:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
    return bool(problems)
