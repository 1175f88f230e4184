"""Run the repository benchmark and print every metric with its unit.

Usage::

    python3 benchmark/run.py [--workload W] [--seed S] [--seconds N]
                             [--trace [0|1]] [--out DIR]

Each workload runs in its own fresh process (``workloads.py``), one at a
time, serially. ``--trace 0`` (the default) reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer
metrics from a traced run and writes ``DIR/<workload>.trace.json``.

The last line of standard output is one JSON object: for one workload
``{"correct", "attempted", "failed", "metrics"}``, and without
``--workload`` one such object per workload name. Before it, each
workload's report has an ``outputs:`` line, one SHA-256 over every
cell's payload digest, which ``compare.py`` matches between commits.
The exit code is 0 when every output check passed, 1 when a check
failed, and 2 when a workload produced no result.

``--tiny`` shrinks every workload for the smoke test. ``--write-expected``
rewrites the seed-0 payload digests in ``expected.json``; use it only
for a deliberate change to the simulated model.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every workload process must finish well inside the 180 s run limit.
CHILD_TIMEOUT_S = 170
#: Prefix of the report line that carries the outputs digest.
OUTPUTS_PREFIX = "outputs: "


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, args: argparse.Namespace) -> dict | None:
    """One workload in a fresh process; its report, or None on failure."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(args.out)]
    if args.tiny:
        cmd.append("--tiny")
    if args.write_expected:
        cmd.append("--write-expected")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: workload process exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def print_report(report: dict, declared: list[dict]) -> None:
    name = report["workload"]
    rate = report["failed"] / report["attempted"]
    print(f"== {name} (seed {report['seed']}, trace {report['trace']}): "
          f"{report['attempted']} cells, error_rate {rate:g}, "
          f"correct {report['correct']}")
    for metric in declared:
        key = metric["name"]
        print(f"  {key:34s} {report['metrics'][key]:>16.6g} "
              f"{metric['unit']:6s} n={report['samples'][key]}")
    for note in report["notes"]:
        print(f"  note: {note}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    outputs = hashlib.sha256(
        json.dumps(report["digests"], sort_keys=True).encode()).hexdigest()
    print(f"{OUTPUTS_PREFIX}{outputs} over {len(report['digests'])} cells")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="trace files and scratch space")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite the seed-0 digests in expected.json")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    results = {}
    for name in [args.workload] if args.workload else names:
        report = run_workload(name, args)
        if report is None:
            return 2
        if set(report["metrics"]) != {m["name"] for m in declared}:
            print(f"{name}: reported metrics differ from BENCHMARK.json",
                  file=sys.stderr)
            return 2
        print_report(report, declared)
        results[name] = {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                m["name"]: {"value": report["metrics"][m["name"]],
                            "unit": m["unit"]}
                for m in declared
            },
        }
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
