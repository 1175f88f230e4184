"""The eight Table-2 applications as ready-to-simulate workloads.

Each builder constructs the index substrate, the walk-request stream, and a
*descriptor factory* (descriptors are stateful, so every memory-system run
gets a fresh one). Default sizes are ~100x below the paper's (DESIGN.md);
``scale`` multiplies record and walk counts, and :data:`PAPER_SCALE` marks
the multiplier where the scan index reaches the paper's 10M keys.

Key sequences come from chunked :class:`~repro.workloads.stream.KeyStream`
generators that replicate the eager ``keygen`` lists bit for bit (the
committed baselines pin this), so building a paper-scale workload never
materializes a 10M-element Python list. The B+tree-backed workloads
(scan / select / where / join) additionally accept ``backend="soa"`` to
store the index as per-level numpy arrays (:mod:`repro.indexes.soa`) with
a byte-identical address layout, and ``max_walks`` to cap the request
stream to an exact prefix — together these are what make 1x-scale runs
fit in RAM.

Table 2 mapping:

=========  ========  ==========================  ===============
Workload   DSA       Index                       Pattern
=========  ========  ==========================  ===============
scan       Gorgon    B+tree (table)              Level
sets       Gorgon    hash of skip lists          Node
sets_s     Gorgon    shallow hash (many buckets) Node
spmm       Capstan   dynamic sparse tensor       Node (leaf+life)
spmm_s     Capstan   shallow fibers              Node (leaf+life)
select     Gorgon    B+tree (table)              Level
where      Gorgon    B+tree (table)              Level
join       Gorgon    two B+trees                 Level
rtree      Aurochs   BTree-x + BTree-y           Level + Branch
pagerank   Aurochs   adjacency list              Node + Branch
=========  ========  ==========================  ===============
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.descriptors import (
    BranchDescriptor,
    CompositeDescriptor,
    LevelDescriptor,
    NodeDescriptor,
    ReuseDescriptor,
)
from repro.dsa import aurochs, capstan, gorgon
from repro.dsa.aurochs import PAGERANK_CONFIG, RTREE_CONFIG
from repro.dsa.capstan import SPMM_CONFIG
from repro.dsa.config import DSAConfig
from repro.dsa.gorgon import ANALYTICS_CONFIG, SCAN_CONFIG, SETS_CONFIG
from repro.indexes.adjacency import AdjacencyList
from repro.indexes.base import count_blocks
from repro.indexes.bplustree import BPlusTree
from repro.indexes.fiber import FiberMatrix
from repro.indexes.rtree import RTree2D
from repro.indexes.soa import SoARecordTable
from repro.indexes.sorted_set import SortedSet
from repro.indexes.sparse_tensor import DynamicSparseTensor
from repro.indexes.table import RecordTable
from repro.sim.metrics import WalkRequest
from repro.workloads.graphs import powerlaw_edges
from repro.workloads.matrices import inner_product_rows, powerlaw_coo
from repro.workloads.spatial import clustered_rects
from repro.workloads.stream import KeyStream, range_spans

DescriptorFactory = Callable[[], "ReuseDescriptor | dict[int, ReuseDescriptor]"]

#: ``scale`` at which the scan workload's index reaches the paper's 10M
#: keys (Table 2); the scale sweep's 1x point.
PAPER_SCALE = 250.0


def scaled(count: int, scale: float, floor: int) -> int:
    """Scale a default-size count, never below its floor.

    Every builder sizes records and walks as ``max(floor, count * scale)``;
    the floor keeps tiny scales above the structural minimum (an index
    must still have enough keys to reach its target depth).
    """
    return max(floor, int(count * scale))


#: Declarative sizing per workload: dimension -> (count at scale 1.0,
#: floor). The "records" row sizes the primary index; "walks" sizes the
#: request-driving sequence (for join the request count is 2x the outer
#: table; rtree queries expand ~5x into walk requests). The ``--stats``
#: CLI reads this table, so reported counts match built counts by
#: construction, and every ``build_*`` function sizes itself through
#: :func:`sized`.
WORKLOAD_SIZINGS: dict[str, dict[str, tuple[int, int]]] = {
    "scan": {"records": (40_000, 2_000), "walks": (8_000, 500)},
    "sets": {"records": (20_000, 1_000), "walks": (8_000, 500)},
    "sets_s": {"records": (20_000, 1_000), "walks": (8_000, 500)},
    "spmm": {"dim": (8_192, 512), "nnz": (60_000, 4_000), "walks": (2_000, 150)},
    "spmm_s": {"dim": (8_192, 512), "nnz": (60_000, 4_000), "walks": (2_000, 150)},
    "select": {"records": (40_000, 1_000), "walks": (2_500, 200)},
    "where": {"records": (40_000, 1_000), "walks": (6_000, 500)},
    "join": {"records": (40_000, 1_000), "outer": (6_000, 400)},
    "rtree": {"records": (20_000, 1_000), "walks": (2_000, 200)},
    "pagerank": {"records": (20_000, 1_000), "edges": (50_000, 3_000), "walks": (10_000, 500)},
}


def sized(name: str, dim: str, scale: float) -> int:
    """One :data:`WORKLOAD_SIZINGS` dimension of a workload at ``scale``."""
    count, floor = WORKLOAD_SIZINGS[name][dim]
    return scaled(count, scale, floor)


@dataclass
class Workload:
    """One application ready for the simulator."""

    name: str
    dsa: str
    pattern: str
    config: DSAConfig
    requests: list[WalkRequest]
    indexes: list[Any]
    descriptor_factory: DescriptorFactory
    default_cache_bytes: int = 8 * 1024
    #: Size of the raw key space (for IX-cache key-block sizing).
    key_universe: int = 1 << 20
    #: Key-block bits override for the IX-cache. Node-pattern workloads use
    #: small blocks (Fig. 8's b=4 style) so neighbouring leaves spread
    #: across sets; level-pattern workloads leave this None and size blocks
    #: from the key universe so mid-level nodes stay set-resident.
    ix_key_block_bits: int | None = None
    notes: str = ""
    #: Build provenance, stamped by :func:`build_workload` — lets the run
    #: pipeline reconstruct this workload in a worker process from its
    #: registry name alone. Workloads built by calling a ``build_*``
    #: function directly carry the defaults (1.0, 0) only if those were
    #: the arguments actually used.
    scale: float = 1.0
    seed: int = 0
    #: The extra builder kwargs as sorted ``(name, value)`` items; ``()``
    #: for a default build.
    builder_kwargs: tuple = ()
    _blocks: int | None = field(default=None, repr=False)
    #: Walk memo (``repro.sim.batch.WalkMemo``), filled by every
    #: ``simulate(..., walks=workload.walks)`` over this workload's
    #: indexes, which never change once built: each object-index
    #: (index, key) walk is resolved once for every memory system and
    #: FA-OPT's first pass (SoA keys are planned per chunk and never
    #: enter it). Keyed by ``id(index)``, so it lives and dies with the
    #: workload and is never copied (``init=False``).
    walks: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def total_index_blocks(self) -> int:
        if self._blocks is None:
            total = 0
            for index in self.indexes:
                # SoA indexes count blocks from their level arrays (the
                # node-view iteration would materialize every node).
                fast = getattr(index, "total_blocks_fast", None)
                total += fast() if fast is not None else count_blocks(index.nodes())
            self._blocks = total
        return self._blocks

    def faopt_pairs(self) -> list[tuple[Any, int]]:
        """(index, key) sequence for the FA-OPT two-pass construction."""
        return [(r.index, r.key) for r in self.requests]


def _depth_fanout(num_keys: int, depth: int) -> int:
    return BPlusTree.fanout_for_depth(num_keys, depth)


def _make_table(
    num_records: int, depth: int, seed: int = 0, backend: str = "object"
) -> RecordTable | SoARecordTable:
    fanout = _depth_fanout(num_records, depth)
    if backend == "soa":
        ids = np.arange(num_records, dtype=np.int64)
        arrays = {
            "id": ids,
            "value": (ids * 2654435761) % 1_000_003,
            "group": ids % 97,
        }
        return SoARecordTable(("id", "value", "group"), "id", arrays, fanout=fanout)
    if backend != "object":
        raise ValueError(f"unknown table backend {backend!r}")
    records = (
        {"id": k, "value": (k * 2654435761) % 1_000_003, "group": k % 97}
        for k in range(num_records)
    )
    return RecordTable.from_records(("id", "value", "group"), "id", records, fanout=fanout)



def _level_descriptor(height: int) -> LevelDescriptor:
    """Wide frontier-growth band (see build_scan) used by Level workloads."""
    return LevelDescriptor(
        start=0, end=height - 1, min_level=0, max_level=height - 1, low_utility=0.5
    )


def _sweep_band(height: int) -> LevelDescriptor:
    """Non-frontier band for bursty sweeps: reuse follows first touch."""
    return LevelDescriptor(
        start=0, end=height - 1, min_level=0, max_level=height - 1,
        low_utility=0.5, min_touches=1, frontier=False,
    )

# --------------------------------------------------------------------- #
# Scan (Gorgon, Level pattern)
# --------------------------------------------------------------------- #

def build_scan(
    scale: float = 1.0,
    seed: int = 0,
    backend: str = "object",
    max_walks: int | None = None,
) -> Workload:
    """Random-search point lookups over a deep B+tree (Table 2: Scan).

    Table 2 uses a 10-level, 10M-key B+tree; the default scale keeps the
    10-level depth at ~100x fewer keys by shrinking the fan-out, and
    ``scale=PAPER_SCALE`` with ``backend="soa"`` reproduces the paper's
    size in-RAM. ``max_walks`` truncates the Zipf key stream to an exact
    prefix (the full-stream rank permutation is preserved), bounding
    simulation time independently of index size.
    """
    num_records = sized("scan", "records", scale)
    num_walks = sized("scan", "walks", scale)
    table = _make_table(num_records, depth=10, seed=seed, backend=backend)
    keys = KeyStream.zipf(num_records, num_walks, skew=0.8, seed=seed)
    if max_walks is not None:
        keys = keys.head(max_walks)
    requests = gorgon.scan_requests(SCAN_CONFIG, table, keys)
    height = table.height

    def descriptors() -> ReuseDescriptor:
        # Wide band with frontier growth: walks extend the cached region
        # one level below each IX-cache hit, so utility eviction shapes a
        # popularity-weighted frontier (hot branches reach the leaves, cold
        # branches keep mid-level reach).
        return _level_descriptor(height)

    return Workload(
        "scan", "gorgon", "level", SCAN_CONFIG, requests, [table], descriptors,
        default_cache_bytes=8 * 1024, key_universe=num_records,
        notes=f"{num_records} records, depth {height}, zipf 0.8 point lookups",
    )


# --------------------------------------------------------------------- #
# Sorted Sets (Gorgon, Node pattern) — deep and shallow variants
# --------------------------------------------------------------------- #

def build_sets(scale: float = 1.0, seed: int = 0, deep: bool = True) -> Workload:
    """Redis-style sorted-set lookups (Table 2: Sets / Sets-S)."""
    name = "sets" if deep else "sets_s"
    num_records = sized(name, "records", scale)
    num_walks = sized(name, "walks", scale)
    score_space = 1 << 20
    if deep:
        num_buckets, max_height = 4, 14
    else:
        # "low associativity hash-table" — many buckets, short lists.
        num_buckets, max_height = max(64, num_records // 8), 3
    sset = SortedSet(
        score_space, num_buckets=num_buckets, max_height=max_height, seed=seed
    )
    rng_scores = KeyStream.zipf(score_space, num_records, skew=0.0, seed=seed + 1)
    scores = sorted(set(rng_scores))
    for i, score in enumerate(scores):
        sset.add(f"member-{i}", score)
    lookups = KeyStream.zipf(len(scores), num_walks, skew=0.9, seed=seed + 2)
    compute = SETS_CONFIG.compute_cycles_per_walk
    requests = [
        WalkRequest(sset, scores[i], compute_cycles=compute) for i in lookups
    ]
    height = sset.height

    def descriptors() -> ReuseDescriptor:
        # The node pattern over skip segments: utility selection inside a
        # first-touch band realizes "cache the skip node located closest
        # to the median point" — hot segments accumulate utility and stay.
        # (A hard node-level target underperforms at reduced scale; see
        # EXPERIMENTS.md.)
        return _sweep_band(height)

    return Workload(
        name, "gorgon", "node", SETS_CONFIG, requests, [sset], descriptors,
        key_universe=score_space,
        notes=f"{len(scores)} records, {num_buckets} buckets, height {height}",
    )


# --------------------------------------------------------------------- #
# SpMM (Capstan, Node pattern) — deep tensors and shallow fibers
# --------------------------------------------------------------------- #

def build_spmm(scale: float = 1.0, seed: int = 0, deep: bool = True) -> Workload:
    """Inner-product SpMM over B's coordinate index (Table 2: SpMM)."""
    name = "spmm" if deep else "spmm_s"
    dim = sized(name, "dim", scale)
    nnz = sized(name, "nnz", scale)
    num_a_rows = sized(name, "walks", scale)
    triples = powerlaw_coo((dim, dim), nnz, col_skew=0.9, seed=seed)
    b: DynamicSparseTensor | FiberMatrix
    if deep:
        fanout = _depth_fanout(dim, 8)
        b = DynamicSparseTensor.from_coo((dim, dim), triples, fanout=fanout)
    else:
        b = FiberMatrix((dim, dim), triples)
    a_rows = inner_product_rows(num_a_rows, 12, dim, bandwidth=96, col_skew=0.9, seed=seed + 1)
    requests = capstan.spmm_requests(SPMM_CONFIG, a_rows, b)

    height = b.height

    def descriptors() -> ReuseDescriptor:
        # Node pattern pins leaves for the burst of accesses their columns
        # receive ("life is set to the number of non-zeros in each
        # column", capped to the per-walk burst), over a sweep band that
        # keeps mid nodes for the band's cold edge.
        return CompositeDescriptor(
            [NodeDescriptor(target="leaf", life=2), _sweep_band(height)]
        )

    return Workload(
        name, "capstan", "node", SPMM_CONFIG, requests, [b], descriptors,
        key_universe=dim,
        ix_key_block_bits=4,
        notes=f"B {dim}x{dim}, nnz {b.nnz}, height {b.height}",
    )


# --------------------------------------------------------------------- #
# Analytics: Nest.SEL / WHERE / JOIN (Gorgon, Level pattern)
# --------------------------------------------------------------------- #

def build_analytics_select(
    scale: float = 1.0,
    seed: int = 0,
    backend: str = "object",
    max_walks: int | None = None,
) -> Workload:
    """Nested SELECT BETWEEN range queries (Fig. 18: Nest.SEL)."""
    num_records = sized("select", "records", scale)
    num_queries = sized("select", "walks", scale)
    table = _make_table(num_records, depth=8, seed=seed, backend=backend)
    starts = KeyStream.zipf(num_records, num_queries, skew=0.8, seed=seed)
    if max_walks is not None:
        starts = starts.head(max_walks)
    ranges = range_spans(starts, span=16, universe=num_records)
    requests = gorgon.select_requests(ANALYTICS_CONFIG, table, ranges)
    height = table.height

    def descriptors() -> ReuseDescriptor:
        return _level_descriptor(height)

    return Workload(
        "select", "gorgon", "level", ANALYTICS_CONFIG, requests, [table], descriptors,
        key_universe=num_records,
        notes=f"{num_records} records, {num_queries} BETWEEN queries of span 16",
    )


def build_analytics_where(
    scale: float = 1.0,
    seed: int = 0,
    backend: str = "object",
    max_walks: int | None = None,
) -> Workload:
    """Data-dependent WHERE-clause probes (Fig. 18: WHERE)."""
    num_records = sized("where", "records", scale)
    num_walks = sized("where", "walks", scale)
    table = _make_table(num_records, depth=8, seed=seed, backend=backend)
    # Nested clause: the probed key is derived from the previous record's
    # value column (data-dependent chain, zipf-seeded).
    seeds = KeyStream.zipf(num_records, num_walks, skew=0.7, seed=seed)
    if max_walks is not None:
        seeds = seeds.head(max_walks)
    keys = []
    key = seeds.first()
    for s in seeds:
        record = table.get(key)
        key = (record["value"] + s) % num_records if record else s
        keys.append(key)
    requests = gorgon.scan_requests(ANALYTICS_CONFIG, table, keys)
    height = table.height

    def descriptors() -> ReuseDescriptor:
        return _level_descriptor(height)

    return Workload(
        "where", "gorgon", "level", ANALYTICS_CONFIG, requests, [table], descriptors,
        key_universe=num_records,
        notes=f"{num_records} records, {num_walks} data-dependent probes",
    )


def build_analytics_join(
    scale: float = 1.0, seed: int = 0, depth: int = 8, backend: str = "object"
) -> Workload:
    """Index nested-loop JOIN over two B+trees (Fig. 18: JOIN).

    ``depth`` controls the inner tree's level count (Fig. 23b sweeps it
    10-18 in the paper; deeper means a smaller fan-out here).
    """
    inner_records = sized("join", "records", scale)
    outer_records = sized("join", "outer", scale)
    inner = _make_table(inner_records, depth=depth, seed=seed, backend=backend)
    fk_stream = KeyStream.zipf(inner_records, outer_records, skew=0.85, seed=seed + 1)
    outer_fanout = _depth_fanout(outer_records, 6)
    if backend == "soa":
        outer = SoARecordTable(
            ("id", "fk"),
            "id",
            {
                "id": np.arange(outer_records, dtype=np.int64),
                "fk": np.concatenate(list(fk_stream.chunks())),
            },
            fanout=outer_fanout,
        )
    else:
        outer = RecordTable.from_records(
            ("id", "fk"),
            "id",
            ({"id": i, "fk": fk} for i, fk in enumerate(fk_stream)),
            fanout=outer_fanout,
        )
    compute = ANALYTICS_CONFIG.compute_cycles_per_walk
    # The join touches both trees: walk the outer index for the record,
    # then probe the inner index with the foreign key.
    requests: list[WalkRequest] = []
    for record in outer.scan():
        requests.append(WalkRequest(outer, record["id"], compute_cycles=compute))
        requests.append(
            WalkRequest(
                inner,
                record["fk"],
                compute_cycles=compute,
                data_address=inner.record_address(record["fk"]),
                data_bytes=inner.record_bytes,
            )
        )
    inner_height, outer_height = inner.height, outer.height

    def descriptors() -> dict[int, ReuseDescriptor]:
        return {
            inner.index_id: _level_descriptor(inner_height),
            outer.index_id: _level_descriptor(outer_height),
        }

    return Workload(
        "join", "gorgon", "level", ANALYTICS_CONFIG, requests, [inner, outer],
        descriptors, key_universe=inner_records,
        notes=f"outer {outer_records} x inner {inner_records}, zipf 0.85 FKs",
    )


# --------------------------------------------------------------------- #
# R-tree spatial analysis (Aurochs, Level + Branch)
# --------------------------------------------------------------------- #

def build_rtree(scale: float = 1.0, seed: int = 0) -> Workload:
    """Quadrilateral embedding over paired x/y B-trees (§4.3)."""
    num_rects = sized("rtree", "records", scale)
    num_queries = sized("rtree", "walks", scale)
    universe = 1 << 20
    rects = clustered_rects(num_rects, universe=universe, seed=seed)
    rtree = RTree2D(
        rects,
        x_fanout=_depth_fanout(num_rects, 8),
        y_fanout=_depth_fanout(num_rects, 6),
    )
    xs = sorted({r.x_lo for r in rects})
    query_idx = KeyStream.clustered(len(xs), num_queries, num_clusters=6, seed=seed + 1)
    x_queries = [xs[i] for i in query_idx]
    requests = aurochs.rtree_requests(RTREE_CONFIG, rtree, x_queries, y_per_x=4)
    xh, yh = rtree.x_tree.height, rtree.y_tree.height

    def descriptors() -> dict[int, ReuseDescriptor]:
        return {
            rtree.x_tree.index_id: _level_descriptor(xh),
            rtree.y_tree.index_id: CompositeDescriptor(
                [
                    BranchDescriptor(depth=yh - 1, window=256),
                    _level_descriptor(yh),
                ]
            ),
        }

    return Workload(
        "rtree", "aurochs", "level+branch", RTREE_CONFIG, requests,
        [rtree.x_tree, rtree.y_tree], descriptors, key_universe=universe,
        ix_key_block_bits=8,
        notes=f"{num_rects} rects, x-tree depth {xh}, y-tree depth {yh}",
    )


# --------------------------------------------------------------------- #
# PageRank-push (Aurochs, Node + Branch)
# --------------------------------------------------------------------- #

def build_pagerank(scale: float = 1.0, seed: int = 0) -> Workload:
    """Push-style PageRank: walks to the destination vertex per edge."""
    num_vertices = sized("pagerank", "records", scale)
    num_edges = sized("pagerank", "edges", scale)
    num_pushes = sized("pagerank", "walks", scale)
    edges = powerlaw_edges(num_vertices, num_edges, skew=0.9, seed=seed)
    graph = AdjacencyList(
        edges, num_vertices=num_vertices, fanout=_depth_fanout(num_vertices, 8)
    )
    compute = PAGERANK_CONFIG.compute_cycles_per_walk
    # Pushes land on edge destinations (zipf-hub heavy); each push walks
    # the vertex directory for the destination's record.
    dsts = [d for _, d in edges]
    rng = KeyStream.zipf(len(dsts), num_pushes, skew=0.0, seed=seed + 1)
    requests = []
    for i in rng:
        v = dsts[i]
        record = graph.record(v)
        requests.append(
            WalkRequest(
                graph,
                v,
                compute_cycles=compute,
                data_address=record.address if record else None,
            )
        )
    height = graph.height

    def descriptors() -> ReuseDescriptor:
        # Hub leaves (Node) plus a sweep band; the Branch member tracks the
        # hub cluster around the moving key median.
        return CompositeDescriptor(
            [
                NodeDescriptor(target="leaf", life=1),
                BranchDescriptor(depth=height - 1, window=512),
                _sweep_band(height),
            ],
            mode="any",
        )

    return Workload(
        "pagerank", "aurochs", "node+branch", PAGERANK_CONFIG, requests, [graph],
        descriptors, key_universe=num_vertices,
        ix_key_block_bits=4,
        notes=f"{num_vertices} vertices, {len(edges)} edges, {num_pushes} pushes",
    )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

WORKLOAD_BUILDERS: dict[str, Callable[..., Workload]] = {
    "scan": build_scan,
    "sets": lambda scale=1.0, seed=0, **kw: build_sets(scale, seed, deep=True, **kw),
    "sets_s": lambda scale=1.0, seed=0, **kw: build_sets(scale, seed, deep=False, **kw),
    "spmm": lambda scale=1.0, seed=0, **kw: build_spmm(scale, seed, deep=True, **kw),
    "spmm_s": lambda scale=1.0, seed=0, **kw: build_spmm(scale, seed, deep=False, **kw),
    "select": build_analytics_select,
    "where": build_analytics_where,
    "join": build_analytics_join,
    "rtree": build_rtree,
    "pagerank": build_pagerank,
}

#: Each workload's DSAConfig without building the workload — the run
#: pipeline needs Table-2 intensities (ops/compute, tile counts) for
#: energy folds and tile-scaled SimParams before any worker has built
#: the index structures.
WORKLOAD_CONFIGS: dict[str, DSAConfig] = {
    "scan": SCAN_CONFIG,
    "sets": SETS_CONFIG,
    "sets_s": SETS_CONFIG,
    "spmm": SPMM_CONFIG,
    "spmm_s": SPMM_CONFIG,
    "select": ANALYTICS_CONFIG,
    "where": ANALYTICS_CONFIG,
    "join": ANALYTICS_CONFIG,
    "rtree": RTREE_CONFIG,
    "pagerank": PAGERANK_CONFIG,
}

#: Fig. 18's x-axis labels for each workload key.
PAPER_LABELS = {
    "scan": "Scan",
    "sets": "Sets",
    "sets_s": "Sets-S",
    "spmm": "SpMM",
    "spmm_s": "SpMM-S",
    "select": "Nest.SEL",
    "where": "WHERE",
    "join": "JOIN",
    "rtree": "RTree",
    "pagerank": "PageRank",
}

#: Workloads whose primary index supports ``backend="soa"``.
SOA_WORKLOADS = frozenset({"scan", "select", "where", "join"})

#: Measured Python-object cost per indexed record for the object-path
#: B+tree substrate (IndexNode + boxed keys + record dict + request
#: overheads), used for the --stats peak-memory estimate.
_OBJECT_BYTES_PER_RECORD = 700
#: SoA cost per record: key array + column arrays (int64 each) + the
#: ~40B/node level arrays amortized over fanout keys per node.
_SOA_BYTES_PER_RECORD = 8 * 4 + 48


def workload_stats(name: str, scale: float = 1.0) -> dict[str, Any]:
    """Sized dimensions + peak-memory estimates without building anything.

    Powers ``python -m repro workloads --stats``; the estimates are
    order-of-magnitude build footprints (the scale sweep measures real
    tracemalloc peaks against its committed budgets).
    """
    try:
        sizing = WORKLOAD_SIZINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOAD_SIZINGS)}"
        ) from None
    counts = {dim: sized(name, dim, scale) for dim in sizing}
    if name == "join":
        counts["records"] = counts["records"] + counts["outer"]
        counts["walks"] = 2 * counts["outer"]
    records = counts.get("records", counts.get("dim", 0))
    stats: dict[str, Any] = {
        "workload": name,
        "scale": scale,
        **counts,
        "est_object_bytes": records * _OBJECT_BYTES_PER_RECORD,
        "est_soa_bytes": (
            records * _SOA_BYTES_PER_RECORD if name in SOA_WORKLOADS else None
        ),
    }
    return stats


def build_workload(
    name: str, scale: float = 1.0, seed: int = 0, **kwargs: Any
) -> Workload:
    """Build a Table-2 workload by its registry name.

    Extra ``kwargs`` go to the builder (e.g. ``depth=...`` for ``join``,
    ``backend="soa"``/``max_walks=...`` for the table workloads). The
    built workload is stamped with its ``scale``/``seed`` and builder
    kwargs so the run pipeline can rebuild an identical copy in a worker
    process.
    """
    try:
        builder = WORKLOAD_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOAD_BUILDERS)}"
        ) from None
    workload = builder(scale=scale, seed=seed, **kwargs)
    workload.scale = scale
    workload.seed = seed
    workload.builder_kwargs = tuple(sorted(kwargs.items()))
    return workload
