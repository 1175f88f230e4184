"""Declarative run pipeline: spec one simulation, execute many, cache all.

* :class:`RunSpec` — frozen, canonically-hashable description of a cell.
* :class:`Executor` — batch submission with dedup, process-parallel
  fan-out (``jobs``), and structured failure capture.
* :class:`ResultStore` — content-addressed on-disk cache keyed by spec
  digest + code version.
* :func:`get_workload` — the per-process memo of built registry
  workloads that every cell (and any caller needing a built one) reads.
"""

from repro.exec.executor import (
    ExecError,
    ExecStats,
    Executor,
    RunOutcome,
    default_executor,
    resolve_jobs,
)
from repro.exec.spec import RunSpec, code_version
from repro.exec.store import ResultStore, default_cache_dir
from repro.exec.worker import get_workload

__all__ = [
    "ExecError",
    "ExecStats",
    "Executor",
    "ResultStore",
    "RunOutcome",
    "RunSpec",
    "code_version",
    "default_cache_dir",
    "default_executor",
    "get_workload",
    "resolve_jobs",
]
