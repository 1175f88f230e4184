"""Compare the benchmark results of a parent commit and a change.

Usage::

    # run interleaved pairs, save both sets, then compare them
    python3 benchmark/compare.py pairs PARENT_ROOT CHANGE_ROOT --out DIR \
        [--workload W ...]

    # compare two saved sets
    python3 benchmark/compare.py diff PARENT.jsonl CHANGE.jsonl

``pairs`` runs ``benchmark/run.py`` in each checkout for ten pairs,
workload by workload, alternating which side runs first; pair ``i`` uses
seed ``i`` on both sides, so pair 0 also checks ``expected.json``. Each
line of a saved set is ``{"pair", "first", "workload", "seed", "outputs",
"result"}``, where ``result`` is the last line ``run.py --workload``
printed and ``outputs`` its outputs digest.

For every workload the report first says whether the two sides produced
the same outputs at every seed; a host-only change must. Then, for every
end-to-end metric of ``BENCHMARK.json``, it gives each side's median and
quartiles, the pairs the change won (ties, pairs within 1% of each
other, count for neither), and one verdict:

* ``failed``     the change failed more output checks than the parent (a
  run whose ``correct`` is false counts at least one);
* ``improved``   the change won at least 9/10 of the pairs and its median
  is better than the parent's by more than the parent's IQR;
* ``unresolved`` the IQR/median of either side is wider than the bound,
  unless every change run is better than every parent run;
* ``regressed``  the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``  otherwise.

The exit code is 1 when outputs differ or any row regressed or failed,
else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUTPUTS_PREFIX

HERE = Path(__file__).resolve().parent
PAIRS = 10
WIN_SHARE = 0.9
#: Pairs closer than this share of the parent's value are ties. Peak RSS
#: repeats to the kilobyte within one checkout but shifts ~0.5% between
#: two checkouts of identical code, so a smaller gap is not a change.
TIE_SHARE = 0.01


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_one(root: Path, workload: str, seed: int) -> tuple[str, dict]:
    """The outputs digest and result line of one run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    outputs = [line[len(OUTPUTS_PREFIX):].split()[0] for line in lines
               if line.startswith(OUTPUTS_PREFIX)]
    if proc.returncode not in (0, 1) or len(outputs) != 1:
        raise SystemExit(f"{root}: {workload} seed {seed} gave no result")
    return outputs[0], json.loads(lines[-1])


def run_pairs(parent: Path, change: Path, out: Path,
              workloads: list[str]) -> tuple[Path, Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = {"parent": out / "parent.jsonl", "change": out / "change.jsonl"}
    roots = {"parent": parent, "change": change}
    files = {side: path.open("w") for side, path in paths.items()}
    try:
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    outputs, result = run_one(roots[side], workload, pair)
                    files[side].write(json.dumps({
                        "pair": pair, "first": side == order[0],
                        "workload": workload, "seed": pair,
                        "outputs": outputs, "result": result,
                    }) + "\n")
                    files[side].flush()
                    print(f"pair {pair} {workload} {side} done", file=sys.stderr)
    finally:
        for f in files.values():
            f.close()
    return paths["parent"], paths["change"]


def load_set(path: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    with path.open() as f:
        for line in f:
            row = json.loads(line)
            runs[(row["workload"], row["pair"])] = row
    return runs


def failed_checks(result: dict) -> int:
    """Failed output checks of one run; an incorrect run fails one."""
    return max(result["failed"], 0 if result["correct"] else 1)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, failed: tuple[int, int]) -> dict:
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > TIE_SHARE * abs(p)
               for p, c in zip(parent, change))
    gain = sign * (cm - pm)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if failed[1] > failed[0]:
        word = "failed"
    elif wins >= WIN_SHARE * len(parent) and gain > p3 - p1:
        word = "improved"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif -gain / pm > bound:
        word = "regressed"
    else:
        word = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "delta": gain / pm, "spread": spread, "verdict": word}


def compare(parent_path: Path, change_path: Path) -> int:
    spec = load_spec()
    parent, change = load_set(parent_path), load_set(change_path)
    if parent.keys() != change.keys():
        raise SystemExit("the two sets hold different (workload, pair) runs")
    workloads = [w["name"] for w in spec["workloads"]
                 if any(key[0] == w["name"] for key in parent)]
    bad = False
    for workload in workloads:
        pairs = sorted(p for w, p in parent if w == workload)
        if len(pairs) < PAIRS:
            raise SystemExit(f"{workload}: {len(pairs)} pairs, need {PAIRS}")
        differ = [parent[(workload, p)]["seed"] for p in pairs
                  if parent[(workload, p)]["outputs"]
                  != change[(workload, p)]["outputs"]]
        bad |= bool(differ)
        print(f"{workload}: outputs "
              + (f"DIFFER at seeds {differ}" if differ else "identical"))
    print(f"{'workload':13s} {'metric':12s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'better':>7s} {'wins':>6s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for workload in workloads:
        pairs = sorted(p for w, p in parent if w == workload)
        results = [[runs[(workload, p)]["result"] for p in pairs]
                   for runs in (parent, change)]
        failed = tuple(sum(failed_checks(r) for r in side) for side in results)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                *[[r["metrics"][name]["value"] for r in side]
                  for side in results],
                metric["better"], metric["bound"], failed)
            bad |= row["verdict"] in ("regressed", "failed")
            sides = ["/".join(f"{v:.4g}" for v in row[side])
                     for side in ("parent", "change")]
            print(f"{workload:13s} {name:12s} {sides[0]:>30s} {sides[1]:>30s} "
                  f"{row['delta']:+7.1%} {row['wins']:>3d}/{len(pairs):<2d} "
                  f"{row['spread']:7.1%} {metric['bound']:6.0%}  {row['verdict']}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pairs = sub.add_parser("pairs", help="run interleaved pairs, then compare")
    pairs.add_argument("parent_root", type=Path)
    pairs.add_argument("change_root", type=Path)
    pairs.add_argument("--out", type=Path, required=True)
    pairs.add_argument("--workload", action="append",
                       help="repeatable; default every workload")
    diff = sub.add_parser("diff", help="compare two saved result sets")
    diff.add_argument("parent", type=Path)
    diff.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    if args.command == "pairs":
        workloads = args.workload or [w["name"] for w in load_spec()["workloads"]]
        parent, change = run_pairs(args.parent_root.resolve(),
                                   args.change_root.resolve(), args.out,
                                   workloads)
        return compare(parent, change)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
