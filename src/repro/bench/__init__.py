"""Benchmark harness regenerating every table and figure of Section 5.

Every Section-5 experiment is a :func:`repro.bench.grid.run_grid` cells
table plus a formatter of its rows: Figs. 15-25, Table 3, the cycle
attribution, the ablations, the policy lab and the paper-scale sweep's
simulations (see DESIGN.md's experiment index).
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
