"""Spatial analysis on Aurochs: R-tree quadrilateral embedding (§4.3).

Random x coordinates walk the x-tree; the correlated y keys then scan the
y-tree, and "the reuse tends to be along certain tree sub-branches" — the
Branch descriptor tracks the moving key cluster with its median pivot.

    python examples/spatial_queries.py
"""

from repro import BranchDescriptor, CompositeDescriptor, LevelDescriptor
from repro.dsa.aurochs import RTREE_CONFIG, rtree_requests
from repro.indexes.rtree import Rect, RTree2D
from repro.params import CacheParams
from repro.sim.memsys import make_memsys
from repro.sim.metrics import simulate
from repro.workloads.keygen import clustered_stream
from repro.workloads.spatial import clustered_rects


def spatial_semantics() -> None:
    print("=== Spatial query semantics ===")
    rects = [
        Rect(0, 0, 10, 0, 10),
        Rect(1, 5, 20, 5, 25),
        Rect(2, 100, 110, 100, 120),
    ]
    rtree = RTree2D(rects)
    hits = rtree.query_point(7, 7)
    print(f"point (7,7) inside rects: {[r.rect_id for r in hits]}")
    window = Rect(99, 0, 12, 0, 12)
    overlapping = rtree.query_window(window)
    print(f"window [0..12]^2 intersects: {[r.rect_id for r in overlapping]}\n")


def simulated_embedding() -> None:
    print("=== Simulated quadrilateral embedding ===")
    rects = clustered_rects(6_000, universe=1 << 20, seed=21)
    rtree = RTree2D(rects, x_fanout=3, y_fanout=3)
    print(f"x-tree: {rtree.x_tree.height} levels, "
          f"y-tree: {rtree.y_tree.height} levels, {len(rtree)} rects")

    xs = sorted({r.x_lo for r in rects})
    query_idx = clustered_stream(len(xs), 800, num_clusters=5, seed=22)
    requests = rtree_requests(RTREE_CONFIG, rtree, [xs[i] for i in query_idx])
    print(f"{len(requests)} walks (x-tree + correlated y-tree scans)")

    sim = RTREE_CONFIG.sim_params()
    params = CacheParams(capacity_bytes=8 * 1024)
    results = {}
    for kind in ("stream", "address", "xcache"):
        ms = make_memsys(kind, sim, params)
        results[kind] = simulate(ms, requests, sim)

    # Table 2's RTree pattern: Level on the x-tree, Branch on the y-tree.
    xh, yh = rtree.x_tree.height, rtree.y_tree.height
    descriptors = {
        rtree.x_tree.index_id: LevelDescriptor(0, xh - 1, min_level=0),
        rtree.y_tree.index_id: CompositeDescriptor([
            BranchDescriptor(depth=yh - 1, window=256),
            LevelDescriptor(0, yh - 1, min_level=0),
        ]),
    }
    ms = make_memsys("metal", sim, params, descriptors=descriptors,
                     key_block_bits=8)
    results["metal"] = simulate(ms, requests, sim)

    base = results["stream"].makespan
    for name, run in results.items():
        print(f"  {name:8s} {base / run.makespan:5.2f}x  "
              f"avg walk {run.avg_walk_latency:7.1f} cycles")

    branch = descriptors[rtree.y_tree.index_id].members[0]
    print(f"\nBranch descriptor settled: pivot={branch.pivot}, "
          f"depth={branch.depth}")


if __name__ == "__main__":
    spatial_semantics()
    simulated_embedding()
