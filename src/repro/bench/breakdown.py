"""Fig. 20 — breakdown of METAL's speedup into its three factors.

IX: the IX-cache alone with the hardwired utility policy (METAL-IX).
Patterns: reuse managed by descriptors with static parameters (tune off).
Params: dynamic parameter tuning enabled (full METAL).
All normalized to the streaming DSA.
"""

from __future__ import annotations

from repro.bench.format import render_table
from repro.bench.grid import GridRow
from repro.workloads.suite import PAPER_LABELS

DEFAULT_WORKLOADS = (
    "scan", "sets", "spmm", "select", "where", "join", "rtree", "pagerank",
)
#: Grid cells of Fig. 20, in factor order. The ``metal`` cell is the
#: Fig. 18 cell (tuning on is ``make_memsys``'s default), so it dedups.
BREAKDOWN_CELLS = ("stream", "metal_ix", "metal_static", "metal")

#: Workloads of the cycle-attribution cross-check: one pointer-chasing
#: and one graph workload.
ATTRIBUTION_WORKLOADS = ("scan", "pagerank")
#: Grid cells of the cross-check, streaming vs full METAL: traced runs
#: folded into per-component cycle attribution. This is the mechanism
#: behind the Fig. 20 factor breakdown, measured directly: the speedup
#: METAL's stages buy shows up as the DRAM components (queue/hit/miss)
#: shrinking relative to the streaming DSA. Attribution is exact — per
#: walk, the components sum to the measured walk latency — unless the
#: ring buffer dropped events.
ATTRIBUTION_CELLS = {
    system: {"system": system,
             "sim_kwargs": {"trace": True, "trace_buffer": 1 << 22},
             "collect": ("attribution",)}
    for system in ("stream", "metal")
}


def format_attribution(rows: list[GridRow]) -> str:
    from repro.obs.profile import ATTRIBUTION_CATEGORIES

    headers = ["workload", "system", "walk cycles"] + [
        f"{cat} %" for cat in ATTRIBUTION_CATEGORIES
    ]
    table = []
    dropped = 0
    for row in rows:
        for system, run in row.runs.items():
            attribution = row.extras[system]["attribution"]
            dropped += attribution["dropped"]
            total = run.total_walk_cycles
            table.append(
                [PAPER_LABELS.get(row.workload, row.workload), system, total]
                + [100.0 * (attribution["totals"].get(cat, 0) / total
                            if total else 0.0)
                   for cat in ATTRIBUTION_CATEGORIES]
            )
    note = ""
    if dropped:
        note = f" ({dropped} events dropped; attribution approximate)"
    return render_table(
        headers, table,
        "Cycle attribution — where walk latency goes, per component" + note,
    )


def format_fig20(results: list[GridRow]) -> str:
    headers = ["workload", "IX only", "+Patterns", "+Params"]
    rows = []
    for r in results:
        sp = r.speedups()
        rows.append([PAPER_LABELS.get(r.workload, r.workload),
                     sp["metal_ix"], sp["metal_static"], sp["metal"]])
    return render_table(
        headers, rows,
        "Fig. 20 — Speedup vs streaming, by contributing factor",
    )
