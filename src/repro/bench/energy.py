"""Fig. 19 (DRAM energy), Fig. 25 (cache energy + on-chip breakdown).

Energy = per-access cost x #accesses (Section 5.7). METAL's range match
costs more per access (9000 fJ vs 7000 fJ) but short-circuiting removes
whole accesses, so totals drop.
"""

from __future__ import annotations

from repro.bench.format import render_table
from repro.bench.grid import GridRow
from repro.bench.runner import SYSTEMS
from repro.workloads.suite import PAPER_LABELS


def format_fig19(results: list[GridRow]) -> str:
    headers = ["workload", *SYSTEMS]
    rows = []
    for result in results:
        norm = result.dram_normalized()
        rows.append([PAPER_LABELS.get(result.workload, result.workload)]
                    + [norm[s] for s in SYSTEMS])
    return render_table(
        headers, rows, "Fig. 19 — Normalized DRAM energy (lower is better)"
    )


def format_fig25(results: list[GridRow]) -> str:
    headers = ["workload", "addr (nJ)", "xcache (nJ)", "metal (nJ)",
               "metal/addr accesses", "tile%", "ix%", "walker%"]
    rows = []
    for result in results:
        energy = result.cache_energy_fj()
        addr_acc = result.runs["address"].cache_stats.accesses or 1
        metal_acc = result.runs["metal"].cache_stats.accesses
        breakdown = result.onchip_breakdown()
        rows.append([
            PAPER_LABELS.get(result.workload, result.workload),
            energy["address"] / 1e6,
            energy["xcache"] / 1e6,
            energy["metal"] / 1e6,
            metal_acc / addr_acc,
            breakdown["tile"] * 100,
            breakdown["ix_cache"] * 100,
            breakdown["walker"] * 100,
        ])
    return render_table(
        headers, rows,
        "Fig. 25 — Cache energy (top) and on-chip energy breakdown (bottom)",
    )
