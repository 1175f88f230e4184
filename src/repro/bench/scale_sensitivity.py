"""Scale sensitivity: do the paper's orderings hold as workloads grow?

The reproduction runs ~100x below paper scale; this experiment sweeps the
scale factor and tracks the headline orderings (METAL vs X-cache vs
address vs streaming). If an ordering flipped with scale, the reduced-
scale results would not be trustworthy — this is the evidence they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.format import render_table
from repro.exec import Executor, RunSpec, default_executor
from repro.sim.metrics import RunResult

DEFAULT_SCALES = (0.1, 0.25, 0.5)
TRACKED = ("stream", "address", "xcache", "metal")


@dataclass
class ScalePoint:
    scale: float
    num_walks: int
    index_blocks: int
    speedups: dict[str, float] = field(default_factory=dict)
    metal_vs_xcache: float = 0.0

    @classmethod
    def from_runs(cls, scale: float, runs: dict[str, RunResult]) -> "ScalePoint":
        base = runs["stream"].makespan
        point = cls(
            scale=scale,
            num_walks=runs["stream"].num_walks,
            index_blocks=runs["stream"].total_index_blocks,
            speedups={k: base / max(1, r.makespan) for k, r in runs.items()},
        )
        point.metal_vs_xcache = (
            runs["xcache"].makespan / max(1, runs["metal"].makespan)
        )
        return point


def run_scale_sensitivity(
    workload_name: str = "scan",
    scales: tuple[float, ...] = DEFAULT_SCALES,
    executor: Executor | None = None,
) -> list[ScalePoint]:
    executor = executor or default_executor()
    specs = [
        RunSpec(workload=workload_name, system=kind, scale=scale)
        for scale in scales
        for kind in TRACKED
    ]
    folded = executor.run_results(specs)
    points = []
    for i, scale in enumerate(scales):
        runs = dict(zip(TRACKED, folded[i * len(TRACKED):(i + 1) * len(TRACKED)]))
        points.append(ScalePoint.from_runs(scale, runs))
    return points


def orderings_stable(points: list[ScalePoint]) -> bool:
    """True if METAL > X-cache > streaming holds at every scale."""
    for point in points:
        s = point.speedups
        if not (s["metal"] > s["xcache"] >= s["stream"]):
            return False
    return True


def format_scale_sensitivity(points: list[ScalePoint], workload: str) -> str:
    headers = ["scale", "walks", "index blocks", *TRACKED, "METAL/X-cache"]
    rows = [
        [p.scale, p.num_walks, p.index_blocks]
        + [p.speedups[k] for k in TRACKED]
        + [p.metal_vs_xcache]
        for p in points
    ]
    stable = "stable" if orderings_stable(points) else "UNSTABLE"
    return render_table(
        headers, rows,
        f"Scale sensitivity ({workload}) — orderings {stable} across scales",
    )
