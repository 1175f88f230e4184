"""Executor — batch RunSpec submission with dedup, caching, and workers.

Modules declare their cells up front as :class:`RunSpec` lists, submit a
batch, and fold the outcomes. The executor deduplicates identical specs
(within a batch and across batches via a session memo), serves hits from
the :class:`ResultStore` when one is attached, and fans the remainder out
over a ``ProcessPoolExecutor`` (``jobs > 1``) or runs them inline
(``jobs=1`` — fully in-process for debugging).

A failed cell never kills the batch: its outcome carries the worker
traceback, and :meth:`RunOutcome.require`/:meth:`Executor.run_results`
raise a labelled :class:`ExecError` only when a consumer actually needs
the missing result.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterable

from repro.exec.spec import RunSpec
from repro.exec.store import ResultStore
from repro.exec.worker import execute_spec, seed_workload
from repro.sim.metrics import RunResult
from repro.workloads.suite import Workload

#: Environment override for the default executor's job count.
JOBS_ENV = "REPRO_JOBS"


class ExecError(RuntimeError):
    """A consumer needed a cell that failed; message carries spec + traceback."""


def resolve_jobs(jobs: int | str) -> int:
    if jobs == "auto":
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1 (or 'auto')")
    return jobs


def _safe_execute(spec: RunSpec) -> tuple[bool, Any]:
    """Pool-safe wrapper: (True, payload) or (False, formatted traceback)."""
    try:
        return True, execute_spec(spec)
    except Exception:
        return False, traceback.format_exc()


@dataclass
class ExecStats:
    """Cumulative pipeline accounting across an executor's lifetime."""

    requested: int = 0
    computed: int = 0
    cache_hits: int = 0
    failed: int = 0

    @property
    def deduped(self) -> int:
        """Cells served by in-session dedup (batch + memo), not recomputed."""
        return self.requested - self.computed - self.cache_hits - self.failed

    def summary(self, jobs: int) -> str:
        return (
            f"Run pipeline: {self.requested} cells requested, "
            f"{self.computed} computed, {self.deduped} deduplicated, "
            f"{self.cache_hits} served from cache, {self.failed} failed "
            f"(jobs={jobs})"
        )


class RunOutcome:
    """One spec's result: payload (live or cached) or a captured failure."""

    __slots__ = ("spec", "payload", "cached", "error", "_result")

    def __init__(self, spec: RunSpec, payload: dict[str, Any] | None,
                 cached: bool = False, error: str | None = None) -> None:
        self.spec = spec
        self.payload = payload
        self.cached = cached
        self.error = error
        self._result: RunResult | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def result(self) -> RunResult | None:
        """The reconstructed RunResult (op="run" payloads), lazily built."""
        if self._result is None and self.payload is not None \
                and "result" in self.payload:
            self._result = RunResult.from_dict(self.payload["result"])
        return self._result

    @property
    def data(self) -> dict[str, Any] | None:
        """Raw data of non-"run" ops (e.g. dynamic_mix)."""
        return None if self.payload is None else self.payload.get("data")

    @property
    def extras(self) -> dict[str, Any]:
        """Worker-side artifacts requested via spec.collect."""
        return (self.payload or {}).get("extras") or {}

    def check(self) -> "RunOutcome":
        """Raise the captured failure, if any; returns self for chaining."""
        if self.error is not None:
            raise ExecError(
                f"cell {self.spec.label()} failed\n"
                f"spec: {self.spec.canonical()}\n{self.error}"
            )
        return self

    def require(self) -> RunResult:
        result = self.check().result
        assert result is not None, "require() is for op='run' specs; use check().data"
        return result


class Executor:
    """Runs RunSpec batches; owns the worker pool, memo, and store."""

    def __init__(self, jobs: int | str = 1,
                 store: ResultStore | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.store = store
        self.stats = ExecStats()
        self._memo: dict[RunSpec, RunOutcome] = {}
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def run(self, specs: Iterable[RunSpec]) -> list[RunOutcome]:
        """Execute a batch; outcomes align 1:1 with the submitted specs."""
        specs = list(specs)
        self.stats.requested += len(specs)
        outcomes: dict[RunSpec, RunOutcome] = {}
        pending: list[RunSpec] = []
        queued: set[RunSpec] = set()
        for spec in specs:
            if spec in outcomes or spec in queued:
                continue
            memoized = self._memo.get(spec)
            if memoized is not None:
                outcomes[spec] = memoized
                continue
            if self.store is not None:
                payload = self.store.get(spec)
                if payload is not None:
                    self.stats.cache_hits += 1
                    outcomes[spec] = RunOutcome(spec, payload, cached=True)
                    continue
            pending.append(spec)
            queued.add(spec)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                raws = [_safe_execute(spec) for spec in pending]
            else:
                raws = list(self._ensure_pool().map(_safe_execute, pending))
            for spec, (ok, value) in zip(pending, raws):
                if ok:
                    self.stats.computed += 1
                    outcomes[spec] = RunOutcome(spec, value)
                    if self.store is not None:
                        self.store.put(spec, value)
                else:
                    self.stats.failed += 1
                    outcomes[spec] = RunOutcome(spec, None, error=value)

        for spec, outcome in outcomes.items():
            if outcome.ok:
                self._memo[spec] = outcome
        return [outcomes[spec] for spec in specs]

    def run_results(self, specs: Iterable[RunSpec]) -> list[RunResult]:
        """Run a batch and demand every cell; raises ExecError on failure."""
        return [outcome.require() for outcome in self.run(specs)]

    def seed_workloads(
        self, workloads: Iterable[Workload] | dict[str, Workload]
    ) -> None:
        """Donate registry workloads built elsewhere to the worker memo.

        For the benchmark harness (which times builds apart from runs)
        and tests; bench code names cells by workload and scale and lets
        :func:`repro.exec.worker.get_workload` build. Serial runs reuse
        them directly; a forked pool created later inherits them
        copy-on-write.
        """
        if isinstance(workloads, dict):
            workloads = workloads.values()
        for workload in workloads:
            seed_workload(workload)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            kwargs: dict[str, Any] = {}
            try:
                import multiprocessing

                kwargs["mp_context"] = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                pass
            self._pool = ProcessPoolExecutor(max_workers=self.jobs, **kwargs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


_DEFAULT: Executor | None = None


def default_executor() -> Executor:
    """Shared in-process executor for library/test use: no store, and
    ``jobs`` from ``$REPRO_JOBS`` (default 1), so results never depend on
    ambient cache state unless a caller opts in via an explicit executor.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Executor(jobs=os.environ.get(JOBS_ENV, 1) or 1)
    return _DEFAULT
