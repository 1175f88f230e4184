"""The simulate pipeline: chunked walk generation into one columnar stream.

* :class:`BatchWalkPlanner` — numpy walk generation over the SoA
  B+tree (:meth:`~repro.indexes.soa.SoABPlusTree.batch_positions`):
  one ``searchsorted`` per level per chunk of new keys instead of one
  per (key, node), one memoized path per leaf, and a per-key memo.
* :func:`simulate_batched` — the body of
  :func:`repro.sim.metrics.simulate`: generates every walk into a
  :class:`~repro.sim.engine.TraceBatch` in chunks of ``WALK_CHUNK``
  requests, times it with ``Engine.run_batch`` (or
  ``Engine.run_functional``), and bundles the metrics.

Every run, traced, faulted or plain, generates through each memory
system's one generator, ``process_chunk``. This module resolves every
request's path once and hands it over: the planner's path for the
positions row over indexes with SoA level arrays, ``index.walk(key)``
for the rest (object-graph B+trees, skip lists, radix tables). The same
resolution counts the streaming-baseline blocks. Object-index paths are
memoized per (index, key) in a :data:`WalkMemo`: for one run, or for
every run over the workload when the caller passes
:attr:`~repro.workloads.suite.Workload.walks`. SoA keys are memoized on
the tree's planner instead, with the same ``(path, baseline blocks)``
value, for every run over the tree. Either
way the path is a :class:`~repro.sim.memsys.WalkPath` that carries its
DRAM emission record, so every memory system appends a walk it has
seen before without re-deriving it node by node. The golden digests in
``tests/`` pin the generated streams.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.mem.dram import DRAM
from repro.obs.histogram import Histogram
from repro.obs.registry import Registry
from repro.obs.tracer import Tracer
from repro.params import BLOCK_SIZE, SimParams
from repro.sim.engine import K_DRAM, Engine, TraceBatch
from repro.sim.memsys import MemorySystem, WalkPath, _node_blocks
from repro.sim.metrics import RunResult
from repro.workloads.stream import chunked

#: Requests per walk-generation chunk. Chunking never reaches results.
WALK_CHUNK = 256

#: Walks per window of the Fig. 16 working-set metric
#: (``RunResult.windowed_working_set``).
WORKING_SET_WINDOW = 2_000

#: ``(id(index), key) -> (walk, streaming-baseline blocks)`` for object
#: indexes (no SoA level arrays). The walk is a
#: :class:`~repro.sim.memsys.WalkPath`: its emission record is built on
#: its first emission and serves every later one, in any memory system.
WalkMemo = dict[tuple[int, Any], tuple[WalkPath, int]]


class BatchWalkPlanner:
    """Numpy walk generation and per-key paths for one SoA tree.

    Wraps a :class:`~repro.indexes.soa.SoABPlusTree`: ``positions``
    resolves a key chunk with one ``searchsorted`` per level;
    ``baseline`` vectorizes the streaming-DSA block-count denominator;
    ``path`` turns a positions row into the
    :class:`~repro.sim.memsys.WalkPath` of the tree's memoized node
    views. The path to a leaf is unique, so one path per leaf serves
    every walk routed through it, and its emission record is built once.
    ``resolve`` plans keys into ``walks``, the tree's per-key memo of
    ``(path, streaming-baseline blocks)``, the same value a
    :data:`WalkMemo` holds. Planners are cached on the tree, so repeated
    runs over one workload plan each distinct key once.
    """

    __slots__ = ("tree", "height", "view", "_levels", "_block_counts",
                 "_paths", "walks")

    def __init__(self, tree: Any) -> None:
        self.tree = tree
        self.height = tree.height
        self.view = tree._view
        self._levels = tree._levels
        self._block_counts: list[np.ndarray | None] = [None] * self.height
        #: Leaf position -> the path to it (the tree is read-only).
        self._paths: dict[int, WalkPath] = {}
        #: Key -> (path, streaming-baseline blocks), filled by ``resolve``.
        self.walks: dict[Any, tuple[WalkPath, int]] = {}

    def positions(self, keys: np.ndarray) -> np.ndarray:
        return self.tree.batch_positions(keys)

    def _counts(self, level: int) -> np.ndarray:
        """Per-node touched-block counts for one level (lazy, vectorized).

        Replicates ``len(_blocks_for(address, nbytes))`` for aligned
        nodes: ``total = ceil(nbytes / 64)`` blocks, of which the walker
        touches ``min(total, 1 + bit_length(total - 1))`` (header +
        binary-search probes; the probe picks are distinct by
        construction). ``frexp`` exponents are exact bit lengths for
        every representable count.
        """
        counts = self._block_counts[level]
        if counts is None:
            nbytes = self._levels[level].nbytes
            total = -(-nbytes // BLOCK_SIZE)
            bits = np.frexp((total - 1).astype(np.float64))[1]
            counts = np.minimum(total, 1 + bits).astype(np.int64)
            self._block_counts[level] = counts
        return counts

    def _row_counts(self, rows: np.ndarray) -> np.ndarray:
        """Streaming block count of each walk row."""
        total = np.zeros(len(rows), dtype=np.int64)
        for level in range(self.height):
            total += self._counts(level)[rows[:, level]]
        return total

    def baseline(self, rows: np.ndarray) -> int:
        """Streaming block count summed over a chunk of walk rows."""
        return int(self._row_counts(rows).sum())

    def path(self, row: list[int]) -> WalkPath:
        """The walk a positions row describes, memoized per leaf."""
        path = self._paths.get(row[-1])
        if path is None:
            view = self.view
            path = WalkPath(
                (view(level, pos) for level, pos in enumerate(row)),
                by_level=True,
            )
            self._paths[row[-1]] = path
        return path

    def resolve(self, keys: list[Any]) -> None:
        """Plan distinct keys missing from ``walks`` into it, in one
        vectorised ``positions`` call."""
        rows = self.positions(np.fromiter(keys, dtype=np.int64,
                                          count=len(keys)))
        path = self.path
        walks = self.walks
        for key, row, blocks in zip(keys, rows.tolist(),
                                    self._row_counts(rows).tolist()):
            walks[key] = (path(row), blocks)


def _planner_for(
    index: Any, planners: dict[int, BatchWalkPlanner | None]
) -> BatchWalkPlanner | None:
    """The index's planner, or None when it has no SoA level arrays."""
    key = id(index)
    if key in planners:
        return planners[key]
    tree = getattr(index, "_tree", index)
    planner = None
    if getattr(tree, "_levels", None) is not None:
        # Cache on the tree itself (it has no __slots__): repeated runs
        # over the same workload reuse the planner's paths.
        planner = tree.__dict__.get("_batch_planner")
        if planner is None:
            planner = BatchWalkPlanner(tree)
            tree._batch_planner = planner
    planners[key] = planner
    return planner


def _plan_chunk(
    requests: list[Any],
    planners: dict[int, BatchWalkPlanner | None],
    walks: WalkMemo,
) -> tuple[list[Any], int]:
    """Resolve one request chunk: every request's path + the baseline count.

    ``requests`` holds WalkRequests or ``(index, key)`` pairs. Returns
    ``prepared`` (per request, its :class:`~repro.sim.memsys.WalkPath`:
    the planner's path over SoA indexes, the memoized
    ``index.walk(key)`` otherwise) and the chunk's streaming-baseline
    increment: the blocks of the point walk to each request's key, range
    scans included. Every request is one memo lookup: SoA keys in their
    planner's ``walks``, other keys per (index, key) in ``walks``, for
    the run or for the workload
    (:attr:`~repro.workloads.suite.Workload.walks`). A workload's indexes
    do not change once built, so only misses are resolved: object keys
    by ``index.walk``, SoA keys by one vectorised ``positions`` call per
    planner per chunk.
    """
    prepared: list[Any] = [None] * len(requests)
    baseline = 0
    #: Per planner, its missed keys -> the requests waiting on each.
    missed: dict[int, tuple[BatchWalkPlanner, dict[Any, list[int]]]] = {}
    for i, request in enumerate(requests):
        index, key = request[0], request[1]
        planner = _planner_for(index, planners)
        if planner is None:
            walk_id = (id(index), key)
            resolved = walks.get(walk_id)
            if resolved is None:
                path = WalkPath(index.walk(key))
                resolved = (path, sum(len(_node_blocks(node)) for node in path))
                walks[walk_id] = resolved
        else:
            resolved = planner.walks.get(key)
            if resolved is None:
                group = missed.get(id(planner))
                if group is None:
                    group = missed[id(planner)] = (planner, {})
                group[1].setdefault(key, []).append(i)
                continue
        prepared[i] = resolved[0]
        baseline += resolved[1]
    for planner, waiting in missed.values():
        planner.resolve(list(waiting))
        memo = planner.walks
        for key, members in waiting.items():
            path, blocks = memo[key]
            for i in members:
                prepared[i] = path
            baseline += blocks * len(members)
    return prepared, baseline


def _planned(
    requests: list[Any], walks: WalkMemo | None
) -> Iterator[tuple[list[Any], list[Any], int]]:
    """``(chunk, prepared, baseline)`` per ``WALK_CHUNK`` of requests.

    Without a workload memo, a memo for this pass alone is used.
    """
    if walks is None:
        walks = {}
    planners: dict[int, BatchWalkPlanner | None] = {}
    for part in chunked(requests, WALK_CHUNK):
        yield (part, *_plan_chunk(part, planners, walks))


def resolve_walks(
    pairs: list[tuple[Any, int]],
    walks: WalkMemo | None = None,
) -> list[Any]:
    """Every ``(index, key)`` pair's resolved path, through the memo.

    FA-OPT's first pass reads its walk blocks from these paths.
    """
    return [path for _, prepared, _ in _planned(pairs, walks) for path in prepared]


def _windowed_working_set(
    batch: TraceBatch, total_index_blocks: int, window: int
) -> float:
    """Average distinct index-region DRAM blocks per window of walks.

    This is the Fig. 16 working-set metric: how much of the index a
    steady window of walks actually pulls from DRAM, over the index's
    total blocks. Data-region accesses are excluded (identical across
    cache designs). Every DRAM entry is one 64B block, so distinct
    (window, block) pairs are the first of each run of equal codes in
    one sorted, encoded pair array; the fractions are averaged in
    python floats, in window order.
    """
    num_walks = batch.num_walks
    if total_index_blocks <= 0 or num_walks == 0:
        return 0.0
    kinds_arr, a1_arr, _ = batch.arrays()
    index = np.flatnonzero((kinds_arr == K_DRAM) & (a1_arr < batch.data_base))
    offsets = np.asarray(batch.offsets, dtype=np.int64)
    windows = (np.searchsorted(offsets, index, side="right") - 1) // window
    blocks = a1_arr[index] // BLOCK_SIZE
    num_windows = -(-num_walks // window)
    # Index blocks sit below DATA_BASE // 64 < 2**25; window ids fit
    # alongside them in an int64 without collision.
    codes = np.sort((windows << 36) | blocks)
    first = np.empty(len(codes), dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    counts = np.bincount(codes[first] >> 36, minlength=num_windows)
    fractions = [
        min(1.0, count / total_index_blocks) for count in counts.tolist()
    ]
    return sum(fractions) / len(fractions)


def _generate(
    memsys: MemorySystem,
    requests: list[Any],
    batch: TraceBatch,
    walks: WalkMemo | None = None,
) -> int:
    """Generate every walk into ``batch``; return the streaming baseline."""
    baseline = 0
    for part, prepared, chunk_baseline in _planned(requests, walks):
        baseline += chunk_baseline
        memsys.process_chunk(batch, part, prepared)
    return baseline


def simulate_batched(
    memsys: MemorySystem,
    requests: list[Any],
    sim: SimParams,
    total_index_blocks: int = 0,
    timed: bool = True,
    record_latencies: bool = False,
    tracer: Tracer | None = None,
    registry: Registry | None = None,
    injector: Any = None,
    walks: WalkMemo | None = None,
) -> RunResult:
    """Generate, time, and measure one run (see :func:`~repro.sim.metrics.simulate`).

    ``tracer``/``registry`` and the fault ``injector`` come already
    attached to ``memsys``; this wires them into the engine too. The
    memory-system trace and fault sites fire in request order.
    """
    batch = TraceBatch()
    baseline = _generate(memsys, requests, batch, walks)
    engine = Engine(sim, DRAM(sim.dram))
    if tracer is not None:
        tracer.walk = -1  # engine events carry explicit walk ids
        engine.attach_obs(tracer, registry)
        # The profiler and percentile gauges need per-walk latencies.
        record_latencies = True
    if injector is not None:
        engine.attach_faults(injector)
    if timed:
        result = engine.run_batch(batch, record_latencies=record_latencies)
    else:
        result = engine.run_functional(batch, record_latencies=record_latencies)
    if injector is not None:
        injector.finalize(result.num_walks)
    latency_hist = (
        Histogram.from_values(result.walk_latencies)
        if result.walk_latencies else None
    )
    depth_hist = Histogram()
    if batch.visits:
        # Grouped ascending records land in the same buckets with the
        # same count/total/min/max as one record per walk.
        for value, count in enumerate(
            np.bincount(np.asarray(batch.visits, dtype=np.int64)).tolist()
        ):
            if count:
                depth_hist.record(value, count)
    counters = None
    if tracer is not None and registry is not None:
        registry.set("engine.makespan", result.makespan)
        registry.set("engine.num_walks", result.num_walks)
        registry.set("engine.total_walk_cycles", result.total_walk_cycles)
        registry.set("walks.short_circuited", batch.short_circuited)
        registry.set("walks.full_hits", batch.full_hits)
        registry.set("walks.nodes_visited", batch.nodes_visited)
        for kind, count in tracer.counts.items():
            registry.set(f"events.{kind}", count)
        registry.set("events.dropped", tracer.dropped)
        if latency_hist is not None and latency_hist.count:
            for name, value in latency_hist.to_dict().items():
                registry.set(f"walk_latency.{name}", value)
        if depth_hist.count:
            for name, value in depth_hist.to_dict().items():
                registry.set(f"probe_depth.{name}", value)
        counters = registry.snapshot()
    return RunResult(
        name=memsys.name,
        makespan=result.makespan,
        num_walks=result.num_walks,
        total_walk_cycles=result.total_walk_cycles,
        dram=engine.dram.stats,
        cache_stats=memsys.cache_stats,
        total_index_blocks=total_index_blocks,
        short_circuited=batch.short_circuited,
        full_hits=batch.full_hits,
        nodes_visited=batch.nodes_visited,
        start_levels=batch.start_levels,
        walk_latencies=result.walk_latencies,
        bandwidth_utilization=engine.dram.bandwidth_utilization(
            max(1, result.makespan)
        ),
        windowed_working_set=_windowed_working_set(
            batch, total_index_blocks, WORKING_SET_WINDOW
        ),
        index_dram_accesses=batch.index_dram,
        baseline_index_accesses=baseline,
        counters=counters,
        tracer=tracer,
        latency_hist=latency_hist,
        depth_hist=depth_hist,
        faults=injector.stats.to_dict() if injector is not None else None,
    )


__all__ = [
    "BatchWalkPlanner",
    "WALK_CHUNK",
    "WalkMemo",
    "resolve_walks",
    "simulate_batched",
]
