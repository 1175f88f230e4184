"""Fig. 22 — level-pattern adaptivity over walk windows.

Replays the Scan workload in windows and records the level band the tuned
descriptor settles on per batch, against the static (untuned) band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bench.format import render_table
from repro.exec import Executor, RunSpec, default_executor, get_workload


@dataclass
class AdaptivityResult:
    workload: str
    windows: list[dict[str, Any]] = field(default_factory=list)


def run_adaptivity(
    workload_name: str = "scan",
    scale: float = 0.25,
    num_windows: int = 10,
    executor: Executor | None = None,
) -> AdaptivityResult:
    executor = executor or default_executor()
    num_walks = len(get_workload(workload_name, scale).requests)
    # One controller batch per window.
    batch = max(50, num_walks // num_windows)
    spec = RunSpec.make(
        workload_name, "metal", scale=scale,
        memsys_kwargs={"batch_walks": batch, "tune": True},
        collect=("controller_history", "start_levels"),
    )
    outcome = executor.run([spec])[0]
    outcome.require()
    history = outcome.extras["controller_history"]
    start_levels = outcome.extras["start_levels"]
    result = AdaptivityResult(workload_name)
    for i, entry in enumerate(history):
        descriptor = entry["descriptors"][0]
        window_levels = start_levels[i * batch : (i + 1) * batch]
        mean_start = (
            sum(window_levels) / len(window_levels) if window_levels else 0.0
        )
        result.windows.append(
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


def format_fig22(result: AdaptivityResult) -> str:
    headers = [
        "window", "band start", "band end", "mean short-circuit level",
        "hit rate", "occupancy",
    ]
    rows = [
        [w["window"], w["start"], w["end"], w["mean_start_level"],
         w["hit_rate"], w["occupancy"]]
        for w in result.windows
    ]
    return render_table(
        headers, rows,
        f"Fig. 22 — Level-pattern adaptivity per walk window ({result.workload}): "
        "the cached frontier deepens as parameters tune",
    )
