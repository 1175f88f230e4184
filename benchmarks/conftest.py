"""Shared fixtures for the figure/table benchmarks.

Workloads are built once per session, into the exec worker's memo, so
the timed runs (which name their cells by workload and scale) measure
simulation only; set ``REPRO_BENCH_SCALE`` to change the workload scale
(default 0.15 keeps the whole suite fast; 1.0 reproduces the repo's full
default sizes).
"""

import os

import pytest

from repro.exec import get_workload
from repro.workloads.suite import WORKLOAD_BUILDERS

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def workloads(bench_scale):
    """Every Table-2 workload, built once and left in the worker memo."""
    return {name: get_workload(name, bench_scale) for name in WORKLOAD_BUILDERS}


def run_once(benchmark, fn, *args, **kwargs):
    """Time a single execution (experiments are deterministic)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
