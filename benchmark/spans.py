"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each ``repro`` layer by
patching the attribute a caller resolves at call time: a module-level
name at its call-site module (``repro.serve.engine.merged_arrivals``) or
a method on its class (``Engine.run``). Each call then records one span
``(name, layer, start_ns, end_ns, parent, cell, count)``; ``parent`` is
the index of the enclosing span, found by keeping a stack, and ``cell``
is the id of the benchmark cell that was running.

Spans stay in memory until :meth:`SpanRecorder.write_chrome` writes them
as Chrome/Perfetto JSON. A span's self time is its duration minus the
time its direct children cover, so a nested call into the same layer
(``process_chunk`` falling back to ``process_walk``) counts once, and
the self times of all spans add up to the summed durations of the root
spans exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable

#: Layer of the benchmark's own root spans (set-up, cell); its self
#: time is the unattributed residual ``other_s``.
OTHER = "other"

#: Self-time metric name for each layer, in report order.
LAYER_METRICS: dict[str, str] = {
    "workloads.build": "workloads.build_s",
    "indexes.build": "indexes.build_s",
    "indexes.insert": "indexes.insert_s",
    "indexes.get": "indexes.get_s",
    "memsys.build": "memsys.build_s",
    "memsys.tracegen": "memsys.tracegen_s",
    "engine.run": "engine.run_s",
    "metrics.simulate": "metrics.simulate_self_s",
    "metrics.to_dict": "metrics.to_dict_s",
    "exec": "exec.self_s",
    "exec.store_put": "exec.store_put_s",
    "serve.arrivals": "serve.arrivals_s",
    "serve.sweep": "serve.sweep_s",
    "tile_backend.model": "tile_backend.model_s",
    "bench": "bench.self_s",
    OTHER: "other_s",
}

#: (module, attribute path, layer). Names imported into several modules
#: are patched at every call site the workloads reach.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.workloads.suite", "build_workload", "workloads.build"),
    ("repro.exec.worker", "build_workload", "workloads.build"),
    ("repro.bench.dynamic", "zipf_stream", "workloads.build"),
    ("repro.indexes.bplustree", "BPlusTree.bulk_load", "indexes.build"),
    ("repro.indexes.bplustree", "BPlusTree.insert", "indexes.insert"),
    ("repro.indexes.bplustree", "BPlusTree.get", "indexes.get"),
    ("repro.bench.runner", "build_memsys", "memsys.build"),
    ("repro.exec.worker", "build_memsys", "memsys.build"),
    ("repro.bench.dynamic", "make_memsys", "memsys.build"),
    ("repro.sim.engine", "Engine.run", "engine.run"),
    ("repro.sim.engine", "Engine.run_batch", "engine.run"),
    ("repro.sim.engine", "Engine.run_functional", "engine.run"),
    ("repro.sim.metrics", "simulate", "metrics.simulate"),
    ("repro.exec.worker", "simulate", "metrics.simulate"),
    ("repro.sim.batch", "simulate_batched", "metrics.simulate"),
    ("repro.sim.metrics", "RunResult.to_dict", "metrics.to_dict"),
    ("repro.exec.executor", "Executor.run", "exec"),
    ("repro.exec.store", "ResultStore.put", "exec.store_put"),
    ("repro.serve.engine", "merged_arrivals", "serve.arrivals"),
    ("repro.serve.engine", "simulate_serve", "serve.sweep"),
    ("repro.serve.engine", "execute_serve", "serve.sweep"),
    ("repro.sim.tile_backend", "build_service_model", "tile_backend.model"),
    ("repro.bench.dynamic", "run_dynamic_mix", "bench"),
    ("repro.bench.dynamic", "mix_cell", "bench"),
    ("repro.bench.serve", "run_serve_sweep", "bench"),
    ("repro.bench.serve", "calibrated_rpm", "bench"),
)

#: Trace-generation methods, patched on every MemorySystem subclass that
#: defines them. The value counts the walks one call generates.
WALK_METHODS: dict[str, Callable[[tuple], int]] = {
    "process_walk": lambda args: 1,
    "process_range_scan": lambda args: 1,
    "process_chunk": lambda args: len(args[2]),
}

Span = tuple[str, str, int, int, int, Any, int]


class SpanRecorder:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.cell: Any = None
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _wrap(self, fn: Callable, name: str, layer: str,
              count: Callable[[tuple], int] | None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.cell,
                              count(args) if count is not None else 1)

        return wrapper

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside one of the benchmark's own spans."""
        return self._wrap(fn, name, OTHER, None)(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def _patch(self, owner: Any, attr: str, name: str, layer: str,
               count: Callable[[tuple], int] | None = None) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._wrap(raw.__func__, name, layer, count))
        else:
            patched = self._wrap(raw, name, layer, count)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores the originals."""
        for module_name, path, layer in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            self._patch(owner, attr, f"{module_name}.{path}", layer)
        from repro.sim.memsys import MemorySystem

        for cls in _subclasses(MemorySystem):
            for method, count in WALK_METHODS.items():
                if method in vars(cls):
                    self._patch(cls, method, f"{cls.__name__}.{method}",
                                "memsys.tracegen", count)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    # Analysis and export
    # ------------------------------------------------------------------ #

    def finished(self) -> list[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("spans still open")
        return self.spans  # type: ignore[return-value]

    def self_times_ns(self) -> list[int]:
        """Per-span duration minus the time its direct children cover."""
        spans = self.finished()
        child_ns = [0] * len(spans)
        for _, _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - child_ns[i]
                for i, (_, _, start, end, _, _, _) in enumerate(spans)]

    def layer_self_ns(self) -> dict[str, int]:
        """Summed self time per layer (every layer in LAYER_METRICS)."""
        totals = dict.fromkeys(LAYER_METRICS, 0)
        for span, own in zip(self.finished(), self.self_times_ns()):
            totals[span[1]] += own
        return totals

    def outer_count(self, layer: str) -> int:
        """Work counted by the spans of ``layer`` not nested in ``layer``."""
        spans = self.finished()
        return sum(
            count for _, lay, _, _, parent, _, count in spans
            if lay == layer and (parent < 0 or spans[parent][1] != layer)
        )

    def write_chrome(self, path: Path) -> None:
        """Write every span as a Chrome/Perfetto complete ("X") event."""
        spans = self.finished()
        t0 = min((s[2] for s in spans), default=0)
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": i, "parent": parent, "cell": cell},
            }
            for i, (name, layer, start, end, parent, cell, _) in enumerate(spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def _subclasses(cls: type) -> list[type]:
    """Every subclass of ``cls``, once each, parents before children."""
    found: dict[type, None] = {}
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop(0)
        if sub not in found:
            found[sub] = None
            pending.extend(sub.__subclasses__())
    return list(found)
