"""The simulate pipeline: chunked walk generation into one columnar stream.

* :class:`BatchWalkPlanner` — numpy walk generation over the SoA
  B+tree (:meth:`~repro.indexes.soa.SoABPlusTree.batch_positions`):
  one ``searchsorted`` per level per key chunk instead of one per
  (key, node), plus memoized per-node emission templates.
* :func:`simulate_batched` — the body of
  :func:`repro.sim.metrics.simulate`: generates every walk into a
  :class:`~repro.sim.engine.TraceBatch` in chunks of ``WALK_CHUNK``
  requests, times it with ``Engine.run_batch`` (or
  ``Engine.run_functional``), and bundles the metrics.

Untraced, fault-free runs generate through each memory system's
``process_chunk`` (native columnar emitters where the index has SoA
level arrays). Indexes without them (the object backend, skip lists,
radix tables), range scans, and every traced or faulted run go through
the per-request generators (``process_walk``/``process_range_scan``),
where the memory-system trace and fault sites are. The golden digests
in ``tests/`` pin all of these paths.
"""

from __future__ import annotations

from array import array
from typing import Any

import numpy as np

from repro.mem.dram import DRAM
from repro.obs.histogram import Histogram
from repro.obs.registry import Registry
from repro.obs.tracer import Tracer
from repro.params import BLOCK_SIZE, SimParams
from repro.sim.engine import K_COMPUTE, K_DRAM, Engine, TraceBatch
from repro.sim.memsys import MemorySystem, _blocks_for, _node_blocks
from repro.sim.metrics import RunResult
from repro.workloads.stream import chunked

#: Requests per walk-generation chunk. Chunking never reaches results.
WALK_CHUNK = 256

#: Memoized small columns for template assembly: a node with ``nb``
#: blocks always emits ``nb`` DRAM entries plus one search step.
_KIND_ROWS: dict[int, array] = {}
_ZERO_ROWS: dict[int, array] = {}


def _kinds_row(nb: int) -> array:
    t = _KIND_ROWS.get(nb)
    if t is None:
        t = array("b", (K_DRAM,) * nb + (K_COMPUTE,))
        _KIND_ROWS[nb] = t
    return t


def _zeros_row(n: int) -> array:
    t = _ZERO_ROWS.get(n)
    if t is None:
        t = array("q", [0] * n)
        _ZERO_ROWS[n] = t
    return t


class BatchWalkPlanner:
    """Numpy walk generation + per-node emission templates for one tree.

    Wraps a :class:`~repro.indexes.soa.SoABPlusTree`: ``positions``
    resolves a key chunk with one ``searchsorted`` per level;
    ``baseline`` vectorizes the streaming-DSA block-count denominator;
    ``template`` memoizes each node's (kinds, operands) emission so hot
    nodes append by tuple concatenation instead of re-deriving their
    block footprint per visit. Planners are cached on the tree, so
    repeated runs over one workload reuse every template.
    """

    __slots__ = (
        "tree", "height", "view", "_levels", "_level_offsets",
        "_block_counts", "_blocks", "_templates", "_walk_templates",
        "_packed",
    )

    def __init__(self, tree: Any) -> None:
        self.tree = tree
        self.height = tree.height
        self.view = tree._view
        self._levels = tree._levels
        self._level_offsets = [int(o) for o in tree._level_offsets]
        self._block_counts: list[np.ndarray | None] = [None] * self.height
        self._blocks: dict[int, tuple[int, ...]] = {}
        # Keyed by t_search: templates bake the search-step latency in.
        self._templates: dict[int, dict[int, tuple]] = {}
        self._walk_templates: dict[int, dict[tuple[int, int], tuple]] = {}
        # pack_node results per (index_id, block_bytes): packing is pure
        # in the node's geometry and the index namespace, and the SoA
        # tree is immutable, so packed entry lists can be reused across
        # inserts (IXCache.insert never mutates the supplied list).
        self._packed: dict[tuple[int, int], dict[tuple[int, int], list]] = {}

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

    def baseline(self, rows: np.ndarray) -> int:
        """Streaming block count summed over a chunk of walk rows."""
        total = 0
        for level in range(self.height):
            total += int(self._counts(level)[rows[:, level]].sum())
        return total

    def blocks(self, level: int, pos: int) -> tuple[int, ...]:
        """The node's touched block addresses (shared scalar memo)."""
        linear = self._level_offsets[level] + pos
        b = self._blocks.get(linear)
        if b is None:
            lvl = self._levels[level]
            b = _blocks_for(int(lvl.address[pos]), int(lvl.nbytes[pos]))
            self._blocks[linear] = b
        return b

    def template_map(self, t_search: int) -> dict[int, tuple]:
        m = self._templates.get(t_search)
        if m is None:
            m = {}
            self._templates[t_search] = m
        return m

    def build_template(self, level: int, pos: int, t_search: int) -> tuple:
        """(kinds, a1, a2, n_blocks) columns for one node visit + search step."""
        blocks = self.blocks(level, pos)
        nb = len(blocks)
        return (
            _kinds_row(nb),
            array("q", blocks + (t_search,)),
            _zeros_row(nb + 1),
            nb,
        )

    def packed_map(
        self, index_id: int, block_bytes: int
    ) -> dict[tuple[int, int], list]:
        m = self._packed.get((index_id, block_bytes))
        if m is None:
            m = {}
            self._packed[(index_id, block_bytes)] = m
        return m

    def walk_template_map(self, t_search: int) -> dict[tuple[int, int], tuple]:
        m = self._walk_templates.get(t_search)
        if m is None:
            m = {}
            self._walk_templates[t_search] = m
        return m

    def build_walk_template(
        self, base_level: int, row: list[int], t_search: int
    ) -> tuple:
        """Concatenated emission for the sub-walk from ``base_level`` down.

        The path below any level is unique per leaf, so the memo key
        ``(base_level, row[-1])`` serves every walk routed through that
        leaf. Returns ``(kinds, a1, a2, index_dram, nodes)`` with
        ``nodes`` the (level, pos) pairs in visit order for the policy
        loop.
        """
        per_node = self.template_map(t_search)
        offsets = self._level_offsets
        kinds = array("b")
        a1 = array("q")
        a2 = array("q")
        total = 0
        nodes = []
        for position, pos in enumerate(row[base_level:]):
            level = base_level + position
            linear = offsets[level] + pos
            t = per_node.get(linear)
            if t is None:
                t = self.build_template(level, pos, t_search)
                per_node[linear] = t
            kinds += t[0]
            a1 += t[1]
            a2 += t[2]
            total += t[3]
            # The memoized node view rides in the template so the policy
            # loop never re-resolves it.
            nodes.append(((level, pos), self.view(level, pos)))
        return (kinds, a1, a2, total, tuple(nodes))


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
        # over the same workload reuse the planner's templates.
        planner = tree.__dict__.get("_batch_planner")
        if planner is None:
            planner = BatchWalkPlanner(tree)
            tree._batch_planner = planner
    planners[key] = planner
    return planner


def _plan_chunk(
    requests: list[Any],
    planners: dict[int, BatchWalkPlanner | None],
    baseline_cache: dict[tuple[int, int], int],
) -> tuple[list[tuple[BatchWalkPlanner, list[int]] | None], int]:
    """Resolve one request chunk: vectorized walk rows + baseline count.

    Returns ``prepared`` (per request: ``(planner, positions_row)`` for
    point walks over SoA indexes, None for fallback requests) and the
    chunk's streaming-baseline increment. Range scans contribute their
    point-walk baseline here (matching the scalar accounting) but emit
    through the scalar fallback.
    """
    prepared: list[tuple[BatchWalkPlanner, list[int]] | None] = (
        [None] * len(requests)
    )
    baseline = 0
    groups: dict[int, tuple[BatchWalkPlanner, list[int]]] = {}
    for i, request in enumerate(requests):
        planner = _planner_for(request.index, planners)
        if planner is None:
            walk_id = (id(request.index), request.key)
            b = baseline_cache.get(walk_id)
            if b is None:
                b = sum(
                    len(_node_blocks(node))
                    for node in request.index.walk(request.key)
                )
                baseline_cache[walk_id] = b
            baseline += b
        else:
            group = groups.get(id(request.index))
            if group is None:
                groups[id(request.index)] = (planner, [i])
            else:
                group[1].append(i)
    for planner, members in groups.values():
        keys = np.fromiter(
            (requests[i].key for i in members), dtype=np.int64,
            count=len(members),
        )
        rows = planner.positions(keys)
        baseline += planner.baseline(rows)
        rows_list = rows.tolist()
        for j, i in enumerate(members):
            if requests[i].scan_hi is None:
                prepared[i] = (planner, rows_list[j])
    return prepared, baseline


def _windowed_working_set(
    batch: TraceBatch, total_index_blocks: int, window: int
) -> float:
    """Average distinct index-region DRAM blocks per window of walks.

    This is the Fig. 16 working-set metric: how much of the index a
    steady window of walks actually pulls from DRAM, over the index's
    total blocks. Data-region accesses are excluded (identical across
    cache designs). Every DRAM entry is one 64B block, so distinct
    (window, block) pairs fall out of one ``np.unique`` over an encoded
    pair array; the fractions are averaged in python floats, in window
    order.
    """
    num_walks = batch.num_walks
    if total_index_blocks <= 0 or num_walks == 0:
        return 0.0
    kinds_arr, a1_arr, _ = batch.arrays()
    index = np.flatnonzero((kinds_arr == K_DRAM) & (a1_arr < batch.data_base))
    walk_of = np.searchsorted(batch.offsets, index, side="right") - 1
    windows = walk_of // window
    blocks = a1_arr[index] // BLOCK_SIZE
    num_windows = -(-num_walks // window)
    # Index blocks sit below DATA_BASE // 64 < 2**25; window ids fit
    # alongside them in an int64 without collision.
    codes = np.unique((windows << 36) | blocks)
    counts = np.bincount(codes >> 36, minlength=num_windows)
    fractions = [
        min(1.0, count / total_index_blocks) for count in counts.tolist()
    ]
    return sum(fractions) / len(fractions)


def _generate(
    memsys: MemorySystem,
    requests: list[Any],
    batch: TraceBatch,
    tracer: Tracer | None,
    per_request: bool,
) -> int:
    """Generate every walk into ``batch``; return the streaming baseline.

    ``per_request`` sends each request through the memory system's
    per-request generator with ``tracer.walk`` set to its ordinal;
    otherwise each chunk goes through ``process_chunk``.
    """
    planners: dict[int, BatchWalkPlanner | None] = {}
    baseline_cache: dict[tuple[int, int], int] = {}
    baseline = 0
    ordinal = 0
    for part in chunked(requests, WALK_CHUNK):
        prepared, chunk_baseline = _plan_chunk(
            part, planners, baseline_cache
        )
        baseline += chunk_baseline
        if not per_request:
            memsys.process_chunk(batch, part, prepared)
            continue
        for request in part:
            if tracer is not None:
                tracer.walk = ordinal
            ordinal += 1
            memsys.emit_walk(batch, request)
    return baseline


def simulate_batched(
    memsys: MemorySystem,
    requests: list[Any],
    sim: SimParams,
    total_index_blocks: int = 0,
    timed: bool = True,
    record_latencies: bool = False,
    working_set_window: int = 2_000,
    tracer: Tracer | None = None,
    registry: Registry | None = None,
    injector: Any = None,
) -> RunResult:
    """Generate, time, and measure one run (see :func:`~repro.sim.metrics.simulate`).

    ``tracer``/``registry`` and the fault ``injector`` come already
    attached to ``memsys``; this wires them into the engine too. Traced
    and faulted runs generate per request, so the memory-system trace
    and fault sites fire in request order.
    """
    batch = TraceBatch()
    baseline = _generate(
        memsys, requests, batch, tracer,
        per_request=tracer is not None or injector is not None,
    )
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
            batch, total_index_blocks, working_set_window
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
    "simulate_batched",
]
