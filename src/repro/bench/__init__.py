"""Benchmark harness regenerating every table and figure of Section 5.

Figs. 15-20 and 25 and Table 3 are views of one grid of workloads x
memory organizations, :func:`repro.bench.grid.run_grid`; their modules
(``trends``, ``speedup``, ``energy``, ``breakdown``) only format it. Every
other experiment has its own module (see DESIGN.md's experiment index).
:mod:`repro.bench.runner` is the shared workload-x-memory-system driver and
:mod:`repro.bench.report` regenerates everything into a text report.
"""

from repro.bench.runner import (
    SYSTEMS,
    build_memsys,
    compare_systems,
    run_workload,
)

__all__ = [
    "build_memsys",
    "compare_systems",
    "run_workload",
    "SYSTEMS",
]
