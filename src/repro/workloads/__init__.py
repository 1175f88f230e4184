"""Workload generators and the eight Table-2 applications.

The paper's datasets (10M-record tables, HB/bcsstk matrices, social graphs)
are substituted by synthetic generators that preserve what drives cache
behaviour: key-distribution skew, index depth and fan-out, spatial
clustering, and power-law degree/popularity. Default scales are ~100x
smaller than the paper's (see DESIGN.md) and configurable upward.
"""

from repro.workloads.keygen import clustered_stream, uniform_stream, zipf_stream
from repro.workloads.stream import KeyStream, range_spans
from repro.workloads.suite import (
    PAPER_SCALE,
    WORKLOAD_BUILDERS,
    WORKLOAD_SIZINGS,
    Workload,
    scaled,
    workload_stats,
    build_analytics_join,
    build_analytics_select,
    build_analytics_where,
    build_pagerank,
    build_rtree,
    build_scan,
    build_sets,
    build_spmm,
    build_workload,
)

__all__ = [
    "build_analytics_join",
    "build_analytics_select",
    "build_analytics_where",
    "build_pagerank",
    "build_rtree",
    "build_scan",
    "build_sets",
    "build_spmm",
    "build_workload",
    "clustered_stream",
    "KeyStream",
    "PAPER_SCALE",
    "range_spans",
    "scaled",
    "uniform_stream",
    "WORKLOAD_BUILDERS",
    "WORKLOAD_SIZINGS",
    "Workload",
    "workload_stats",
    "zipf_stream",
]
