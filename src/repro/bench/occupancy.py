"""Fig. 21 — what lives in the IX-cache, by index level.

Compares METAL-IX's greedy occupancy against pattern-managed METAL for the
workloads the paper plots (Scan, SpMM, Sets, SpMM-S). Sorted-set skip
lists can be arbitrarily deep, so — like the paper — levels are reported
as-is (level 1 = head of the structure).
"""

from __future__ import annotations

from repro.bench.format import render_table
from repro.bench.grid import GridRow
from repro.workloads.suite import PAPER_LABELS

DEFAULT_WORKLOADS = ("scan", "spmm", "sets", "spmm_s")

#: Grid cells of Fig. 21: each METAL kind's end-of-run occupancy.
OCCUPANCY_CELLS = {
    kind: {"system": kind,
           "collect": ("occupancy_by_level", "index_heights")}
    for kind in ("metal_ix", "metal")
}


def by_level(row: GridRow) -> dict[str, dict[int, int]]:
    """kind -> {index level: IX-cache entries}, levels ascending."""
    return {
        kind: dict(sorted((int(level), n) for level, n
                          in extras["occupancy_by_level"].items()))
        for kind, extras in row.extras.items()
    }


def format_fig21(rows: list[GridRow]) -> str:
    levels = [by_level(row) for row in rows]
    max_level = max(
        (lvl for kinds in levels for occ in kinds.values() for lvl in occ),
        default=0,
    )
    headers = ["workload", "system", *[f"L{l}" for l in range(max_level + 1)]]
    table = []
    for row, kinds in zip(rows, levels):
        for kind, occupancy in kinds.items():
            label = "MTL" if kind == "metal" else "IX"
            table.append(
                [PAPER_LABELS.get(row.workload, row.workload), label]
                + [occupancy.get(l, 0) for l in range(max_level + 1)]
            )
    return render_table(
        headers, table, "Fig. 21 — IX-cache entries per index level"
    )
