"""Aurochs — dataflow-threads DSA (Vilim et al., ISCA'21).

"Aurochs scans through the records in an unordered manner; METAL speeds up
these unordered scans." Aurochs runs the RTree spatial-analysis and
PageRank-push workloads (Table 2) with task-parallel tiles.
"""

from __future__ import annotations

from repro.dsa.config import DSAConfig
from repro.indexes.rtree import RTree2D
from repro.sim.metrics import WalkRequest

#: Table 2 intensities.
RTREE_CONFIG = DSAConfig("aurochs", ops_per_walk=130, ops_per_compute=206)
PAGERANK_CONFIG = DSAConfig("aurochs", ops_per_walk=142, ops_per_compute=141)


def rtree_requests(
    config: DSAConfig, rtree: RTree2D, x_queries: list[int], y_per_x: int = 4
) -> list[WalkRequest]:
    """Spatial analysis (quadrilateral embedding, Section 4.3): for each
    random x, walk the x-tree, then the correlated y keys.

    "Once we reach the leaf, we get the y-tree keys that correlate to
    these x keys to form quadrilaterals" — the y-tree scans cluster
    around the x hit, producing the branch-reuse pattern.
    """
    compute = config.compute_cycles_per_walk
    requests = []
    for x in x_queries:
        requests.append(WalkRequest(rtree.x_tree, x, compute_cycles=compute))
        y_keys = rtree.correlated_y_keys(x, window=2)[:y_per_x]
        for y in y_keys:
            requests.append(WalkRequest(rtree.y_tree, y, compute_cycles=compute))
    return requests
