"""Fig. 18 — speedup of every organization over the streaming DSA.

"METAL improves performance vs. streaming DSAs by 7.8x, address-caches by
4.1x, and state-of-the-art DSA-cache by 2.4x." The shallow (-S) variants
demonstrate that the advantage shrinks when there is little reach to
exploit.
"""

from __future__ import annotations

from repro.bench.format import geomean, render_bars, render_table
from repro.bench.grid import GridRow
from repro.bench.runner import SYSTEMS
from repro.workloads.suite import PAPER_LABELS


def headline_ratios(results: list[GridRow]) -> dict[str, float]:
    """Geomean METAL advantage over each baseline (the abstract's claims)."""
    ratios: dict[str, list[float]] = {"stream": [], "address": [], "xcache": [], "metal_ix": []}
    for result in results:
        metal = result.runs["metal"].makespan
        for base in ratios:
            ratios[base].append(result.runs[base].makespan / max(1, metal))
    return {base: geomean(vals) for base, vals in ratios.items()}


def format_fig18(results: list[GridRow]) -> str:
    headers = ["workload", *SYSTEMS]
    rows = []
    for result in results:
        sp = result.speedups()
        rows.append([PAPER_LABELS.get(result.workload, result.workload)]
                    + [sp[s] for s in SYSTEMS])
    ratios = headline_ratios(results)
    table = render_table(
        headers, rows, "Fig. 18 — Speedup over the streaming DSA (higher is better)"
    )
    bars = render_bars(
        [PAPER_LABELS.get(r.workload, r.workload) for r in results],
        [r.speedups()["metal"] for r in results],
        title="\nMETAL speedup per workload:",
    )
    summary = (
        "\nHeadline (geomean METAL advantage): "
        + ", ".join(f"{k}: {v:.2f}x" for k, v in ratios.items())
    )
    return table + "\n" + bars + summary
