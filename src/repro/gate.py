"""The baseline gate behind every committed ``BENCH_*.json`` file.

Each gated ``python -m repro`` subcommand (``report``, ``policy``,
``serve`` and ``scale``) builds one JSON document from its run. With
``--baseline [PATH]`` that document is compared against the committed
one; with ``--baseline [PATH] --write-baseline`` it replaces it. A
command only supplies its document and :class:`Rules`: how to flatten a
document into ``{key: value}`` and which keys are configuration or exact.

Comparison (:func:`compare`) over the flattened maps:

* configuration keys are checked first; any mismatch voids the rest;
* every other baseline key is compared exactly when its last dotted
  component is an exact field (or either value is not a number), and
  otherwise within the relative tolerance the baseline stores;
* a baseline key missing from the run is a regression unless the run did
  not cover it (a subset run); keys only in the run are notes.

Exit codes are shared by every gate: 0 clean, :data:`EXIT_TRENDS` when a
command's own trend predicates fail, :data:`EXIT_MISSING` when the
baseline is missing or unreadable, :data:`EXIT_REGRESSED` on regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable

EXIT_TRENDS = 1
EXIT_MISSING = 2
EXIT_REGRESSED = 3

#: Tolerance for baselines that store no ``rtol`` of their own. Loose
#: enough for intentional small model adjustments; a real regression
#: moves the gated ratios far more.
DEFAULT_RTOL = 0.05

Flat = dict[str, Any]


@dataclass(frozen=True)
class Rules:
    """How one gate reads its documents."""

    #: Document -> flat ``{key: value}`` map of the gated values.
    flatten: Callable[[dict], Flat]
    #: Keys that must be equal before anything else is compared.
    config: tuple[str, ...] = ()
    #: Field names (last dotted key component) compared with ``==``.
    exact: tuple[str, ...] = ()


def add_arguments(parser: argparse.ArgumentParser, default_path: str) -> None:
    """``--baseline [PATH]`` (bare means ``default_path``) and
    ``--write-baseline``."""
    parser.add_argument(
        "--baseline", nargs="?", const=default_path, default=None,
        metavar="PATH",
        help=f"compare this run against a baseline file (bare --baseline "
             f"means {default_path}); exit {EXIT_MISSING} if it is missing "
             f"or unreadable, {EXIT_REGRESSED} on regression")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="(re)write the --baseline file from this run")


def validate(args: argparse.Namespace) -> None:
    """Refuse ``--write-baseline`` without a ``--baseline`` path, before
    any work is done."""
    if args.write_baseline and args.baseline is None:
        print("error: --write-baseline requires --baseline [PATH]",
              file=sys.stderr)
        raise SystemExit(2)


def load(path: str) -> dict:
    """Read a baseline; OSError/ValueError when it is not a JSON object."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return data


def write(path: str, document: dict) -> None:
    with open(path, "w") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _show(value: Any) -> str:
    return f"{value:.6g}" if _is_number(value) else repr(value)


def compare(
    expected: Flat,
    actual: Flat,
    rtol: float = DEFAULT_RTOL,
    config: tuple[str, ...] = (),
    exact: tuple[str, ...] = (),
    covered: Callable[[str], bool] | None = None,
) -> tuple[list[str], list[str]]:
    """``(regressions, notes)`` for a flattened run against its baseline."""
    regressions = [
        f"{key} mismatch: baseline {_show(expected.get(key))} vs run "
        f"{_show(actual.get(key))}"
        for key in config if expected.get(key) != actual.get(key)
    ]
    if regressions:
        return regressions, []
    for key, want in sorted(expected.items()):
        if key in config:
            continue
        if key not in actual:
            if covered is None or covered(key):
                regressions.append(
                    f"{key}: missing from run (baseline {_show(want)})")
            continue
        got = actual[key]
        if (key.rsplit(".", 1)[-1] in exact
                or not (_is_number(got) and _is_number(want))):
            if got != want:
                regressions.append(
                    f"{key}: {_show(got)} != baseline {_show(want)}")
            continue
        rel = abs(got - want) / max(abs(want), 1e-12)
        if rel > rtol:
            regressions.append(
                f"{key}: {got:.6g} vs baseline {want:.6g} "
                f"({rel * 100:+.1f}% > {rtol * 100:.1f}% tolerance)")
    notes = [f"{key}: new metric {_show(actual[key])} (not in baseline)"
             for key in sorted(set(actual) - set(expected))]
    return regressions, notes


def finish(
    args: argparse.Namespace,
    document: dict,
    rules: Rules,
    covered: Callable[[str], bool] | None = None,
    explain: Callable[[dict], str] | None = None,
) -> int:
    """Write or check ``document`` per ``--baseline``/``--write-baseline``;
    returns the exit code. ``explain`` renders informational text from
    the loaded baseline, printed before the verdict."""
    path = args.baseline
    if path is None:
        return 0
    if args.write_baseline:
        write(path, document)
        print(f"baseline written to {path}")
        return 0
    actual = rules.flatten(document)
    try:
        baseline = load(path)
        expected = rules.flatten(baseline)
    except (OSError, ValueError, LookupError, TypeError,
            AttributeError) as exc:
        print(f"baseline {path} not found or unreadable: {exc} (write it "
              f"with --baseline {path} --write-baseline)", file=sys.stderr)
        return EXIT_MISSING
    if explain is not None:
        print(explain(baseline))
    regressions, notes = compare(
        expected, actual, rtol=baseline.get("rtol", DEFAULT_RTOL),
        config=rules.config, exact=rules.exact, covered=covered)
    for note in notes:
        print(f"note: {note}")
    if regressions:
        print(f"{len(regressions)} metric(s) regressed vs {path}:",
              file=sys.stderr)
        for regression in regressions:
            print(f"  - {regression}", file=sys.stderr)
        return EXIT_REGRESSED
    compared = sum(1 for key in expected
                   if key in actual and key not in rules.config)
    print(f"baseline check passed: {compared} metrics within tolerance "
          f"of {path}")
    return 0
