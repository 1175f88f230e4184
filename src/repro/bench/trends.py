"""Figs. 15-17 — miss rate, working set, walk latency across organizations.

Section 5.1's "initial investigation on why METAL's cache organization is
fundamentally more effective": compares METAL against X-cache and a
fully-associative OPT address cache at equal capacity, plus a 16x-larger
FA address cache (the paper's "FA (1MB)").
"""

from __future__ import annotations

from repro.bench.format import render_table
from repro.bench.grid import GridRow
from repro.workloads.suite import PAPER_LABELS

#: Grid cells of Figs. 15-17: the compared organizations, the 16x FA cache
#: of Observation 6, and the streaming baseline.
TREND_CELLS = ("fa_opt", "xcache", "metal_ix", "metal", "fa_big", "stream")
DEFAULT_WORKLOADS = ("scan", "sets", "spmm", "join", "rtree", "pagerank")


def _table(results: list[GridRow], metric: str, title: str) -> str:
    systems = ["fa_opt", "fa_big", "xcache", "metal_ix", "metal"]
    headers = ["workload", *systems]
    rows = []
    for trend in results:
        values = getattr(trend, metric)()
        rows.append([PAPER_LABELS.get(trend.workload, trend.workload)]
                    + [values.get(s, float("nan")) for s in systems])
    return render_table(headers, rows, title)


def format_fig15(results: list[GridRow]) -> str:
    return _table(results, "miss_rates", "Fig. 15 — Miss rate (lower is better)")


def format_fig16(results: list[GridRow]) -> str:
    return _table(
        results, "working_sets",
        "Fig. 16 — Working set: fraction of index walk traffic served by DRAM",
    )


def format_fig17(results: list[GridRow]) -> str:
    return _table(
        results, "walk_latencies", "Fig. 17 — Average walk latency in cycles"
    )
