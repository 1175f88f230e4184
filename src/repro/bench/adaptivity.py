"""Fig. 22 — level-pattern adaptivity over walk windows.

Replays the Scan workload in windows and records the level band the tuned
descriptor settles on per batch, against the static (untuned) band.
"""

from __future__ import annotations

from typing import Any

from repro.bench.format import render_table
from repro.bench.grid import CellTable, GridRow
from repro.workloads.suite import Workload

WORKLOADS = ("scan",)
NUM_WINDOWS = 10


def cells(workload: Workload) -> CellTable:
    """Fig. 22's one cell: tuned METAL, one controller batch per window."""
    batch = max(50, len(workload.requests) // NUM_WINDOWS)
    return {"metal": {
        "system": "metal",
        "memsys_kwargs": {"batch_walks": batch, "tune": True},
        "collect": ("controller_history", "start_levels"),
    }}


def windows(row: GridRow) -> list[dict[str, Any]]:
    """One entry per controller batch: its descriptor band and the mean
    level its walks started at."""
    extras = row.extras["metal"]
    start_levels = extras["start_levels"]
    result = []
    offset = 0
    for i, entry in enumerate(extras["controller_history"]):
        descriptor = entry["descriptors"][0]
        window_levels = start_levels[offset:offset + entry["walks"]]
        offset += entry["walks"]
        mean_start = (
            sum(window_levels) / len(window_levels) if window_levels else 0.0
        )
        result.append(
            {
                "window": i + 1,
                "start": descriptor.get("start"),
                "end": descriptor.get("end"),
                "mean_start_level": mean_start,
                "hit_rate": entry["hit_rate"],
                "occupancy": entry["occupancy"],
            }
        )
    return result


def format_fig22(row: GridRow) -> str:
    headers = [
        "window", "band start", "band end", "mean short-circuit level",
        "hit rate", "occupancy",
    ]
    table = [
        [w["window"], w["start"], w["end"], w["mean_start_level"],
         w["hit_rate"], w["occupancy"]]
        for w in windows(row)
    ]
    return render_table(
        headers, table,
        f"Fig. 22 — Level-pattern adaptivity per walk window ({row.workload}): "
        "the cached frontier deepens as parameters tune",
    )
