"""Warmup/repeat/median timing harness over the perf kernels.

A suite run produces a JSON-serializable :class:`PerfReport`:

* per-kernel wall-clock samples with the median highlighted, and
* per-kernel *checksums* — deterministic digests of the kernel's
  functional output.

Baseline comparison goes through :mod:`repro.gate` and is two-tier by
design: checksums are gated exactly (a mismatch means the hot path
changed behaviour), while timing ratios (:func:`speedups`) are printed
for information only (shared CI runners make wall-clock numbers noisy).
This mirrors the repo's byte-identical equivalence rule for performance
PRs (docs/performance.md).
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro import gate
from repro.bench.format import render_table
from repro.cmdline import name_list, positive_float, positive_int
from repro.perf.kernels import KERNELS

#: Report schema version (bump on incompatible layout changes).
PERF_SCHEMA = 1
#: Default workload scale for the suite (small enough for CI smoke runs,
#: large enough that the end-to-end kernel exercises real cache churn).
DEFAULT_SCALE = 0.05


@dataclass
class KernelResult:
    """Timing samples + functional checksum for one kernel."""

    name: str
    description: str
    runs_s: list[float] = field(default_factory=list)
    checksum: str = ""

    @property
    def median_s(self) -> float:
        ordered = sorted(self.runs_s)
        n = len(ordered)
        if n == 0:
            return 0.0
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2

    @property
    def min_s(self) -> float:
        return min(self.runs_s) if self.runs_s else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "description": self.description,
            "median_s": self.median_s,
            "min_s": self.min_s,
            "runs_s": list(self.runs_s),
            "checksum": self.checksum,
        }


@dataclass
class PerfReport:
    """One full suite run, ready to serialize or compare."""

    scale: float
    repeat: int
    warmup: int
    kernels: dict[str, KernelResult] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        import numpy

        return {
            "schema": PERF_SCHEMA,
            "scale": self.scale,
            "repeat": self.repeat,
            "warmup": self.warmup,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "kernels": {name: k.to_dict() for name, k in self.kernels.items()},
        }

    def write(self, path: str) -> None:
        gate.write(path, self.to_dict())


def run_suite(
    names: tuple[str, ...] | None = None,
    scale: float = DEFAULT_SCALE,
    repeat: int = 5,
    warmup: int = 1,
    progress: bool = False,
) -> PerfReport:
    """Time each kernel: one setup, ``warmup`` discarded runs, ``repeat``
    measured runs. Checksums must be identical across every run of a
    kernel — a drifting checksum means the kernel (or the simulator
    underneath it) is nondeterministic, which is itself a bug.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    report = PerfReport(scale=scale, repeat=repeat, warmup=warmup)
    for name in names or tuple(KERNELS):
        try:
            setup, run, description = KERNELS[name]
        except KeyError:
            raise ValueError(
                f"unknown kernel {name!r} (choose from {', '.join(KERNELS)})"
            ) from None
        if progress:
            print(f"  {name}: setup...", file=sys.stderr, flush=True)
        state = setup(scale)
        result = KernelResult(name=name, description=description)
        for i in range(warmup + repeat):
            started = time.perf_counter()
            checksum = str(run(state))
            elapsed = time.perf_counter() - started
            if result.checksum and checksum != result.checksum:
                raise AssertionError(
                    f"kernel {name} is nondeterministic: run {i} produced "
                    f"checksum {checksum} after {result.checksum}"
                )
            result.checksum = checksum
            if i >= warmup:
                result.runs_s.append(elapsed)
        report.kernels[name] = result
        if progress:
            print(f"  {name}: median {result.median_s * 1e3:.1f} ms",
                  file=sys.stderr, flush=True)
    return report


def format_report(report: PerfReport) -> str:
    rows = []
    for name, kernel in report.kernels.items():
        rows.append([
            name,
            f"{kernel.median_s * 1e3:.2f}",
            f"{kernel.min_s * 1e3:.2f}",
            len(kernel.runs_s),
            kernel.checksum[:12],
        ])
    return render_table(
        ["kernel", "median ms", "min ms", "runs", "checksum"],
        rows,
        f"Microbenchmarks at scale {report.scale:g} "
        f"({report.warmup} warmup + {report.repeat} timed)",
    )


def _flatten(doc: dict[str, Any]) -> dict[str, Any]:
    flat = {"scale": doc.get("scale")}
    for name, kernel in doc.get("kernels", {}).items():
        flat[f"{name}.checksum"] = kernel.get("checksum")
    return flat


#: The checksum gate: timings are never compared, and a scale mismatch
#: voids the comparison (checksums are scale-dependent).
GATE = gate.Rules(flatten=_flatten, config=("scale",), exact=("checksum",))


def covered_by(names: Iterable[str] | None):
    """A ``--kernels`` run answers only for the kernels it ran."""
    if names is None:
        return None
    ran = set(names)
    return lambda key: key.split(".", 1)[0] in ran


def speedups(baseline: dict[str, Any], report: PerfReport) -> dict[str, float]:
    """Baseline median / this run's median per kernel both ran (>1 means
    this tree is faster); empty when the scales differ."""
    if baseline.get("scale") != report.scale:
        return {}
    ratios: dict[str, float] = {}
    for name, want in sorted(baseline.get("kernels", {}).items()):
        got = report.kernels.get(name)
        base_median = float(want.get("median_s") or 0.0)
        if got is not None and base_median > 0 and got.median_s > 0:
            ratios[name] = base_median / got.median_s
    return ratios


def format_speedups(ratios: dict[str, float]) -> str:
    return render_table(
        ["kernel", "speedup vs baseline"],
        [[name, f"{ratio:.2f}x"] for name, ratio in ratios.items()],
        "Baseline comparison (>1 = faster; informational)",
    )


# --------------------------------------------------------------------- #
# python -m repro perf
# --------------------------------------------------------------------- #

def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=positive_float, default=DEFAULT_SCALE,
                        help="kernel input scale (default 0.05; the "
                             "committed BENCH_perf.json baseline uses this "
                             "scale)")
    parser.add_argument("--repeat", type=positive_int, default=5,
                        help="timed repetitions per kernel (median reported)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="discarded warmup runs per kernel")
    parser.add_argument("--kernels", type=name_list(KERNELS), default=None,
                        help="comma-separated kernel subset")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report to this path")
    gate.add_arguments(parser, "BENCH_perf.json")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-kernel progress on stderr")


def run(args: argparse.Namespace) -> int:
    gate.validate(args)
    report = run_suite(
        names=args.kernels or None, scale=args.scale, repeat=args.repeat,
        warmup=args.warmup, progress=not args.quiet,
    )
    print(format_report(report))
    if args.out:
        report.write(args.out)
        print(f"perf report written to {args.out}")
    return gate.finish(
        args, report.to_dict(), GATE, covered=covered_by(args.kernels or None),
        explain=lambda baseline: "\n" + format_speedups(
            speedups(baseline, report)),
    )
