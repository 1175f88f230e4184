"""Microbenchmark harness for the simulator's hot paths (``repro.perf``).

Every performance PR records its trajectory here: timed kernels covering
the engine event loop, the DRAM timing model, the IX-cache probe/fill
path, B+tree walk generation, and the end-to-end :func:`simulate` run.
Each kernel also returns a deterministic *checksum* of its functional
output, so a baseline comparison gates on behaviour equivalence (digest
match) while wall-clock numbers stay informational — the same
byte-identity discipline the run pipeline's ResultStore enforces.

Usage::

    python -m repro perf [--out perf.json] [--baseline BENCH_perf.json]
"""

from repro.perf.harness import (
    KernelResult,
    PerfReport,
    format_report,
    format_speedups,
    run_suite,
    speedups,
)
from repro.perf.kernels import KERNELS, kernel_names

__all__ = [
    "KERNELS",
    "KernelResult",
    "PerfReport",
    "format_report",
    "format_speedups",
    "kernel_names",
    "run_suite",
    "speedups",
]
